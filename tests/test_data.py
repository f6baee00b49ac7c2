"""Episodic sampling: split sizes, label remapping, determinism, file loading."""

import tracemalloc
import weakref

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
    TaskBatch,
    load_class_directory,
    sample_task_batch,
)
from bilevelopt.data import LabelTargets


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
    # each draw fills its rows in task order, so drawing a larger batch must
    # not change earlier tasks
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


@pytest.mark.parametrize(
    "field, spread, noise_sd",
    [
        ("cluster_spread", -5.0, 0.1),
        ("cluster_spread", float("nan"), 0.1),
        ("cluster_spread", float("inf"), 0.1),
        ("cluster_spread", 1e308, 0.1),  # 2 * spread overflows
        ("noise_sd", 1.0, float("nan")),
        ("noise_sd", 1.0, float("inf")),
        ("noise_sd", 1.0, -0.1),
    ],
)
def test_synthetic_source_rejects_what_its_centers_or_noise_cannot_use(field, spread, noise_sd):
    # the centers are drawn on first use, so the constructor checks for them
    with pytest.raises(ValueError, match=field):
        SyntheticGaussian(4, 2, cluster_spread=spread, noise_sd=noise_sd)


@pytest.mark.parametrize("spread", [0.0, np.finfo(np.float64).max / 2])
def test_synthetic_source_draws_at_each_end_of_the_spreads_it_accepts(spread):
    centers = SyntheticGaussian(4, 2, cluster_spread=spread).centers
    assert np.isfinite(centers).all() and np.abs(centers).max() <= spread


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


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_a_value_that_is_not_finite_is_a_parse_error_naming_file_and_line(tmp_path, token):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "rows.csv").write_text(f"1.0,2.0\n1.0, {token}\n")
    with pytest.raises(ParseError) as exc:
        load_class_directory(tmp_path)
    assert str(exc.value) == f"{d / 'rows.csv'}:2: {token!r} is not a finite number"


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
    """The sampler's RNG calls spelled out: each task's classes are the
    first `way` of the argsort of its row of one uniform draw on
    rng.child(0); then one `draw` per chosen class, task by task, all on one
    generator of rng.child(1)."""
    names = source.class_names()
    keys = rng.child(0).generator().random((spec.batch_size, len(names)))
    gen = rng.child(1).generator()
    return [
        [source.draw(names[c], spec.shot + spec.query, gen) for c in np.argsort(row)[: spec.way]]
        for row in keys
    ]


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


def _chosen(source, batch, spec):
    """Each task's class indices, in label order, read back from the first
    train item of each class: a noise-free Gaussian item sits on its class
    center, and a `_unique_corpus` row starts with its class index."""
    firsts = batch.train_features[:, :: spec.shot]
    if isinstance(source, SyntheticGaussian):
        return np.argmin(np.linalg.norm(firsts[..., None, :] - source.centers, axis=-1), axis=-1)
    return firsts[..., 0].astype(int)


def _unique_corpus(root, sizes):
    """A corpus whose rows are all distinct: class k's row i is (k, i)."""
    for k, (name, size) in enumerate(sizes.items()):
        (root / name).mkdir()
        (root / name / "rows.csv").write_text("".join(f"{k},{i}\n" for i in range(size)))
    return ClassDirectory.from_path(root)


def test_each_task_chooses_distinct_classes_and_every_class_gets_chosen():
    # noise-free items sit on their class centers, which name the class
    source = SyntheticGaussian(7, 3, noise_sd=0.0, seed=1)
    spec = EpisodeSpec(way=4, shot=2, query=1, batch_size=200)
    batch = sample_task_batch(source, spec, RngStream(2, 3))
    chosen = _chosen(source, batch, spec)
    assert all(len(set(row)) == spec.way for row in chosen)
    assert set(chosen.ravel()) == set(range(7))


def test_directory_draws_never_repeat_an_item_within_a_class(tmp_path):
    source = _unique_corpus(tmp_path, {"a": 5, "b": 6, "c": 5, "d": 9})
    spec = EpisodeSpec(way=3, shot=2, query=3, batch_size=50)
    batch = sample_task_batch(source, spec, RngStream(4, 1))
    items = np.concatenate(
        [batch.train_features.reshape(50, 3, 2, 2), batch.val_features.reshape(50, 3, 3, 2)],
        axis=2,
    )
    for per_class in items.reshape(-1, 5, 2):
        assert len({tuple(r) for r in per_class}) == 5
        assert len({r[0] for r in per_class}) == 1  # all from one class


def _owner(a: np.ndarray) -> np.ndarray:
    """The array whose memory a holds, following its chain of bases."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("kind", ["synthetic", "directory"])
@pytest.mark.parametrize("way, shot", [(3, 1), (3, 3), (1, 2)])
def test_sampled_stacks_are_contiguous_and_own_their_memory(tmp_path, kind, way, shot):
    # a view of the draw would keep all of its items alive with the batch
    if kind == "synthetic":
        source = _source(num_classes=6)
    else:
        _write_corpus(tmp_path, n_per_class=7, classes=("a", "b", "c", "d", "e"))
        source = ClassDirectory.from_path(tmp_path)
    spec = EpisodeSpec(way=way, shot=shot, query=3, batch_size=4)
    batch = sample_task_batch(source, spec, RngStream(2, 7))
    stacks = (batch.train_features, batch.val_features)
    for stack in stacks:
        assert stack.flags.c_contiguous
        assert _owner(stack).nbytes == stack.nbytes
    assert not np.shares_memory(*stacks)


def test_task_views_are_rows_of_the_batch_stacks():
    spec = EpisodeSpec(way=3, shot=2, query=2, batch_size=6)
    batch = sample_task_batch(_source(), spec, RngStream(8, 8))
    assert len(batch.tasks) == 6
    for j, task in enumerate(batch.tasks):
        assert np.array_equal(task.train_features, batch.train_features[j])
        assert np.array_equal(task.train_labels, batch.train_labels[j])
        assert np.array_equal(task.val_features, batch.val_features[j])
        assert np.array_equal(task.val_labels, batch.val_labels[j])


def test_sampled_targets_are_built_with_their_shared_label_stacks():
    spec = EpisodeSpec(way=3, shot=2, query=4, batch_size=5)
    first = sample_task_batch(_source(), spec, RngStream(1, 1))
    second = sample_task_batch(_source(), spec, RngStream(1, 2))
    for split in ("train", "val"):
        targets, labels = getattr(first, f"{split}_targets"), getattr(first, f"{split}_labels")
        fresh = LabelTargets(labels.copy(), spec.way)
        assert targets.labels is labels and targets.classes == spec.way
        assert targets.onehot.dtype == fresh.onehot.dtype
        assert np.array_equal(targets.onehot, fresh.onehot)
        assert len(targets.at_labels) == len(fresh.at_labels) == 3
        assert all(np.array_equal(a, b) for a, b in zip(targets.at_labels, fresh.at_labels))
        assert not any(a.flags.writeable for a in (targets.onehot, *targets.at_labels))
        # one object across two batches of one shape
        assert getattr(second, f"{split}_targets") is targets
    # and they go when the sampler's stacks go: another shape replaces both
    kept = [weakref.ref(first.val_targets), weakref.ref(first.val_targets.onehot)]
    kept.append(weakref.ref(first.train_targets.at_labels[0]))
    del first, second, targets, fresh
    sample_task_batch(_source(), EpisodeSpec(way=2, shot=1, query=3, batch_size=2), RngStream(1, 3))
    assert [ref() for ref in kept] == [None] * 3


def test_a_batch_built_from_tasks_shares_no_targets():
    spec = EpisodeSpec(way=3, shot=2, query=4, batch_size=2)
    batch = TaskBatch(sample_task_batch(_source(), spec, RngStream(1, 1)).tasks)
    assert batch.train_targets is None and batch.val_targets is None


def test_capacity_error_is_raised_only_when_a_short_class_is_chosen(tmp_path):
    source = _unique_corpus(tmp_path, {"big1": 5, "big2": 5, "tiny": 2})
    spec = EpisodeSpec(way=2, shot=2, query=1)  # needs 3 items per class
    outcomes = set()
    for seed in range(20):
        keys = RngStream(seed, 4).child(0).generator().random((1, 3))
        tiny_chosen = 2 in np.argsort(keys[0])[:2]
        if tiny_chosen:
            with pytest.raises(InsufficientItemsPerClass) as exc:
                sample_task_batch(source, spec, RngStream(seed, 4))
            assert str(exc.value) == "class 'tiny' has 2 items, episode needs 3"
        else:
            batch = sample_task_batch(source, spec, RngStream(seed, 4))
            assert set(_chosen(source, batch, spec)[0]) == {0, 1}
        outcomes.add(tiny_chosen)
    assert outcomes == {True, False}


# --------------------------------------------------------------------------
# one-row draws, pinned to the formulas of the per-class sampler they replace
# --------------------------------------------------------------------------


def test_synthetic_draw_is_center_plus_scaled_normal_noise():
    source = _source(num_classes=5, dim=3)
    rows = source.draw("class_003", 7, RngStream(1, 2).generator())
    noise = RngStream(1, 2).generator().standard_normal((7, 3))
    assert np.array_equal(rows, source.centers[3] + source.noise_sd * noise)


def test_synthetic_draw_scales_and_shifts_its_noise_in_place():
    source = _source(num_classes=6, dim=8)
    chosen = np.tile(np.arange(5), (100, 1))
    source.draw_batch(chosen, 1, RngStream(0, 0).generator())  # the one-time center draw
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        items = source.draw_batch(chosen, 16, RngStream(1, 2).generator())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the noise itself, the gathered centers and nothing else of the draw's size
    assert peak < 1.25 * items.nbytes


def test_directory_draw_is_a_choice_without_replacement(tmp_path):
    _write_corpus(tmp_path, n_per_class=9)
    source = ClassDirectory.from_path(tmp_path)
    rows = source.draw("bee", 4, RngStream(1, 3).generator())
    idx = RngStream(1, 3).generator().choice(9, size=4, replace=False)
    assert np.array_equal(rows, source._table["bee"][idx])


# --------------------------------------------------------------------------
# cost model: generators built per batch, independent of its size
# --------------------------------------------------------------------------


def _count_generators(monkeypatch):
    calls = []
    make = RngStream.generator

    def counted(self):
        calls.append(self)
        return make(self)

    monkeypatch.setattr(RngStream, "generator", counted)
    return calls


@pytest.mark.parametrize("kind", ["synthetic", "directory"])
def test_sampler_builds_the_same_number_of_generators_at_any_batch_size(
    tmp_path, monkeypatch, kind
):
    if kind == "synthetic":
        source = _source(num_classes=6)
    else:
        _write_corpus(tmp_path, n_per_class=7, classes=("a", "b", "c", "d", "e"))
        source = ClassDirectory.from_path(tmp_path)
    source.draw(source.class_names()[0], 1, RngStream(0, 0).generator())  # one-time setup
    calls = _count_generators(monkeypatch)
    counts = []
    for batch_size in (1, 4, 100):
        spec = EpisodeSpec(way=3, shot=2, query=3, batch_size=batch_size)
        before = len(calls)
        sample_task_batch(source, spec, RngStream(0, 1))
        counts.append(len(calls) - before)
    assert counts == [2, 2, 2]


@pytest.mark.parametrize("kind", ["synthetic", "directory"])
def test_a_source_reads_its_class_names_and_capacities_once(tmp_path, monkeypatch, kind):
    if kind == "synthetic":
        source = _source(num_classes=6)
    else:
        _write_corpus(tmp_path, n_per_class=7, classes=("a", "b", "c", "d", "e"))
        source = ClassDirectory.from_path(tmp_path)
    calls, capacity = [], type(source).capacity

    def counted(self, name):
        calls.append(name)
        return capacity(self, name)

    monkeypatch.setattr(type(source), "capacity", counted)
    spec = EpisodeSpec(way=3, shot=2, query=3, batch_size=2)
    for seed in range(3):
        sample_task_batch(source, spec, RngStream(seed, 1))
    assert calls == list(source.class_names())
    assert source.class_names() is source.class_names()
