"""tests/preset_digests.py --check: the comparison with a saved run."""

import preset_digests

SAVED = [
    "RHG       batch  4  metrics aa  x bb",
    "RHG       batch 16  metrics cc  x dd",
    "verify (exit 0)  report ee",
]


def test_check_names_every_line_that_differs_from_the_saved_run():
    assert preset_digests.differing(SAVED, SAVED) == []
    changed = [SAVED[0].replace("aa", "a0"), SAVED[1], SAVED[2].replace("ee", "e0")]
    assert preset_digests.differing(changed, SAVED) == ["RHG batch 4", "verify (exit 0)"]
    # a line that only one of the two runs wrote differs as well
    assert preset_digests.differing(SAVED[:2], SAVED) == ["verify (exit 0)"]
    assert preset_digests.differing(SAVED + ["extra line here"], SAVED) == ["extra line here"]


def test_check_exits_1_and_names_the_lines_that_differ(monkeypatch, tmp_path, capsys):
    saved = tmp_path / "digests.txt"
    saved.write_text("\n".join(SAVED) + "\n")
    monkeypatch.setattr(preset_digests, "digest_lines", lambda: iter(SAVED))
    assert preset_digests.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines() == SAVED
    monkeypatch.setattr(
        preset_digests, "digest_lines", lambda: iter([SAVED[0], SAVED[1].replace("dd", "d0")])
    )
    assert preset_digests.main(["--check", str(saved)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"differs from {saved}: RHG batch 16",
        f"differs from {saved}: verify (exit 0)",
    ]
