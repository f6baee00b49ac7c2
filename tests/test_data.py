"""Episodic sampling: split sizes, label remapping, determinism, file loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelopt import (
    ClassDirectory,
    EmptyClass,
    EpisodeSpec,
    InsufficientClasses,
    InsufficientItemsPerClass,
    MixedDimensions,
    ParseError,
    RngStream,
    SyntheticGaussian,
    load_class_directory,
    sample_task_batch,
)


def _source(num_classes=8, dim=4, seed=0):
    return SyntheticGaussian(num_classes, dim, cluster_spread=5.0, noise_sd=0.3, seed=seed)


# --------------------------------------------------------------------------
# episode structure
# --------------------------------------------------------------------------


def test_task_has_correct_split_sizes_and_labels():
    spec = EpisodeSpec(way=4, shot=2, query=3)
    task = sample_task_batch(_source(), spec, RngStream(0, 1)).tasks[0]
    assert len(task.train) == 4 * 2
    assert len(task.val) == 4 * 3
    assert sorted(set(task.train_labels)) == [0, 1, 2, 3]
    assert sorted(set(task.val_labels)) == [0, 1, 2, 3]
    assert np.bincount(task.train_labels).tolist() == [2, 2, 2, 2]
    assert np.bincount(task.val_labels).tolist() == [3, 3, 3, 3]
    assert task.train_features.shape == (8, 4)
    assert task.val_features.shape == (12, 4)


def test_batch_size_yields_that_many_tasks():
    spec = EpisodeSpec(way=3, shot=1, query=1, batch_size=5)
    batch = sample_task_batch(_source(), spec, RngStream(0, 2))
    assert len(batch) == 5
    assert len(list(batch)) == 5


def test_same_stream_gives_identical_batches():
    spec = EpisodeSpec(way=3, shot=2, query=2, batch_size=2)
    b1 = sample_task_batch(_source(), spec, RngStream(7, 3))
    b2 = sample_task_batch(_source(), spec, RngStream(7, 3))
    for t1, t2 in zip(b1, b2):
        assert np.array_equal(t1.train_features, t2.train_features)
        assert np.array_equal(t1.val_features, t2.val_features)
        assert np.array_equal(t1.train_labels, t2.train_labels)


def test_different_streams_give_different_batches():
    spec = EpisodeSpec(way=3, shot=2, query=2)
    b1 = sample_task_batch(_source(), spec, RngStream(7, 3))
    b2 = sample_task_batch(_source(), spec, RngStream(7, 4))
    assert not np.array_equal(b1.tasks[0].train_features, b2.tasks[0].train_features)


def test_tasks_within_batch_are_independent_of_order():
    # task j is a pure function of (source, spec, rng.child(j)); drawing a
    # larger batch must not change earlier tasks
    spec2 = EpisodeSpec(way=3, shot=1, query=2, batch_size=2)
    spec5 = EpisodeSpec(way=3, shot=1, query=2, batch_size=5)
    b2 = sample_task_batch(_source(), spec2, RngStream(1, 9))
    b5 = sample_task_batch(_source(), spec5, RngStream(1, 9))
    for t_small, t_big in zip(b2, b5):
        assert np.array_equal(t_small.train_features, t_big.train_features)
        assert np.array_equal(t_small.val_features, t_big.val_features)


@given(
    way=st.integers(min_value=2, max_value=5),
    shot=st.integers(min_value=1, max_value=3),
    query=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=20, deadline=None)
def test_labels_are_always_episode_local(way, shot, query, seed):
    spec = EpisodeSpec(way=way, shot=shot, query=query)
    task = sample_task_batch(_source(num_classes=6), spec, RngStream(seed, 5)).tasks[0]
    assert set(task.train_labels) == set(range(way))
    assert set(task.val_labels) == set(range(way))
    # grouped by sampled order: labels appear in blocks
    assert task.train_labels.tolist() == sorted(task.train_labels)


def test_synthetic_draws_cluster_around_centers():
    source = _source(num_classes=4, dim=3)
    gen = RngStream(0, 6).generator()
    rows = source.draw("class_002", 50, gen)
    assert rows.shape == (50, 3)
    assert np.allclose(rows.mean(axis=0), source.centers[2], atol=0.3)


def test_synthetic_centers_depend_on_seed_only():
    s1 = _source(seed=3)
    s2 = _source(seed=3)
    s3 = _source(seed=4)
    assert np.array_equal(s1.centers, s2.centers)
    assert not np.array_equal(s1.centers, s3.centers)


# --------------------------------------------------------------------------
# error paths
# --------------------------------------------------------------------------


def test_too_few_classes_raises():
    spec = EpisodeSpec(way=9, shot=1, query=1)
    with pytest.raises(InsufficientClasses):
        sample_task_batch(_source(num_classes=8), spec, RngStream(0, 0))


def test_episode_spec_validates_fields():
    with pytest.raises(ValueError):
        EpisodeSpec(way=0, shot=1, query=1)
    with pytest.raises(ValueError):
        EpisodeSpec(way=2, shot=1, query=1, batch_size=0)


def test_bounded_class_capacity_is_enforced(tmp_path):
    for cls in ("x", "y"):
        d = tmp_path / cls
        d.mkdir()
        (d / "rows.csv").write_text("1.0,2.0\n3.0,4.0\n")
    source = ClassDirectory.from_path(tmp_path)
    spec = EpisodeSpec(way=2, shot=2, query=1)  # needs 3 items, only 2 exist
    with pytest.raises(InsufficientItemsPerClass):
        sample_task_batch(source, spec, RngStream(0, 0))


# --------------------------------------------------------------------------
# directory corpus
# --------------------------------------------------------------------------


def _write_corpus(root, n_per_class=5, dim=3, classes=("ant", "bee", "cat")):
    gen = np.random.default_rng(0)
    for name in classes:
        d = root / name
        d.mkdir()
        rows = gen.standard_normal((n_per_class, dim))
        text = "\n".join(",".join(f"{v:.6f}" for v in row) for row in rows)
        (d / "data.csv").write_text(text + "\n")


def test_load_class_directory_reads_all_classes(tmp_path):
    _write_corpus(tmp_path)
    table = load_class_directory(tmp_path)
    assert sorted(table) == ["ant", "bee", "cat"]
    assert all(arr.shape == (5, 3) for arr in table.values())


def test_class_directory_source_api(tmp_path):
    _write_corpus(tmp_path)
    source = ClassDirectory.from_path(tmp_path)
    assert source.class_names() == ("ant", "bee", "cat")
    assert source.feature_dim() == 3
    assert source.capacity("bee") == 5
    spec = EpisodeSpec(way=2, shot=2, query=2)
    task = sample_task_batch(source, spec, RngStream(0, 0)).tasks[0]
    assert task.train_features.shape == (4, 3)


def test_draw_without_replacement_from_directory(tmp_path):
    _write_corpus(tmp_path, n_per_class=6)
    source = ClassDirectory.from_path(tmp_path)
    gen = RngStream(0, 1).generator()
    rows = source.draw("ant", 6, gen)
    assert len({tuple(r) for r in rows}) == 6


def test_blank_lines_are_skipped(tmp_path):
    d = tmp_path / "a"
    d.mkdir()
    (d / "r.csv").write_text("1.0,2.0\n\n3.0,4.0\n\n")
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "r.csv").write_text("0.5,0.5\n5,6\n")
    table = load_class_directory(tmp_path)
    assert table["a"].shape == (2, 2)


def test_parse_error_names_file_and_line(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "rows.csv").write_text("1.0,2.0\n1.0,oops\n")
    with pytest.raises(ParseError) as exc:
        load_class_directory(tmp_path)
    assert "rows.csv:2" in str(exc.value)


def test_mixed_row_widths_rejected(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "rows.csv").write_text("1.0,2.0\n1.0,2.0,3.0\n")
    with pytest.raises(MixedDimensions):
        load_class_directory(tmp_path)


def test_mixed_widths_across_classes_rejected(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "r.csv").write_text("1.0,2.0\n")
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "r.csv").write_text("1.0,2.0,3.0\n")
    with pytest.raises(MixedDimensions):
        load_class_directory(tmp_path)


def test_empty_class_and_empty_root_rejected(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(EmptyClass):
        load_class_directory(tmp_path)
    for child in tmp_path.iterdir():
        child.rmdir()
    with pytest.raises(EmptyClass):
        load_class_directory(tmp_path)


def test_missing_root_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_class_directory(tmp_path / "nope")


def test_only_csv_format_supported(tmp_path):
    with pytest.raises(ValueError):
        load_class_directory(tmp_path, file_format="parquet")


# --------------------------------------------------------------------------
# the sampler's random draws, pinned
# --------------------------------------------------------------------------


def _reference_draws(source, spec, rng):
    """The sampler's RNG calls spelled out: one child stream per task, one
    class choice, then one draw per chosen class in order."""
    names = source.class_names()
    per_task = []
    for j in range(spec.batch_size):
        gen = rng.child(j).generator()
        chosen = gen.choice(len(names), size=spec.way, replace=False)
        per_task.append([source.draw(names[c], spec.shot + spec.query, gen) for c in chosen])
    return per_task


@pytest.mark.parametrize("kind", ["synthetic", "directory"])
def test_sampler_matches_a_reconstruction_of_its_draws(tmp_path, kind):
    if kind == "synthetic":
        source = _source(num_classes=6)
    else:
        _write_corpus(tmp_path, n_per_class=7, classes=("a", "b", "c", "d", "e"))
        source = ClassDirectory.from_path(tmp_path)
    spec = EpisodeSpec(way=3, shot=2, query=3, batch_size=4)
    batch = sample_task_batch(source, spec, RngStream(5, 9))
    reference = _reference_draws(source, spec, RngStream(5, 9))
    for task, draws in zip(batch, reference, strict=True):
        assert np.array_equal(task.train_features, np.concatenate([d[:2] for d in draws]))
        assert np.array_equal(task.val_features, np.concatenate([d[2:] for d in draws]))
        assert task.train_labels.tolist() == [0, 0, 1, 1, 2, 2]
        assert task.val_labels.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        for examples, features, labels in (
            (task.train, task.train_features, task.train_labels),
            (task.val, task.val_features, task.val_labels),
        ):
            assert [e.label for e in examples] == labels.tolist()
            assert all(np.array_equal(e.features, row) for e, row in zip(examples, features))
    assert batch.train_features.shape == (4, 6, source.feature_dim())
    assert np.array_equal(batch.val_features, np.stack([t.val_features for t in batch]))
    assert np.array_equal(batch.train_labels, np.stack([t.train_labels for t in batch]))
