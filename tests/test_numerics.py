"""Segmented vectors, counter-based RNG streams, CG, and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelopt import (
    IndefiniteCurvature,
    Layout,
    LayoutMismatch,
    MissingSegment,
    NonFiniteValue,
    ParamVector,
    RngStream,
    conjugate_gradient,
    fd_gradient,
    fd_hvp,
)
from bilevelopt.numerics import conjugate_gradient_batch

# --------------------------------------------------------------------------
# Layout
# --------------------------------------------------------------------------


def test_layout_offsets_are_contiguous_and_cover_dim():
    lay = Layout([("a", 3), ("b", 1), ("c", 4)])
    assert lay.dim == 8
    offsets = [seg.offset for seg in lay.segments]
    lengths = [seg.length for seg in lay.segments]
    assert offsets == [0, 3, 4]
    assert lengths == [3, 1, 4]
    assert lay.names == ("a", "b", "c")


def test_layout_rejects_bad_segments():
    with pytest.raises(ValueError):
        Layout([])
    with pytest.raises(ValueError):
        Layout([("a", 0)])
    with pytest.raises(ValueError):
        Layout([("a", 2), ("a", 3)])
    with pytest.raises(ValueError):
        Layout([("", 2)])


def test_layout_slice_and_missing_segment():
    lay = Layout([("a", 3), ("b", 2)])
    assert lay.slice_of("b") == slice(3, 5)
    assert lay.length_of("missing") == 0
    assert not lay.has("missing")
    with pytest.raises(MissingSegment):
        lay.slice_of("missing")


def test_layout_extended_appends_at_end():
    lay = Layout([("a", 2)]).extended("b", 3)
    assert lay.names == ("a", "b")
    assert lay.slice_of("b") == slice(2, 5)
    # original is untouched
    assert Layout([("a", 2)]).dim == 2


names_st = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=1,
    max_size=5,
    unique=True,
)
lengths_st = st.lists(st.integers(min_value=1, max_value=7), min_size=5, max_size=5)


@given(names=names_st, lengths=lengths_st)
def test_layout_segments_partition_the_vector(names, lengths):
    sizes = list(zip(names, lengths))
    lay = Layout(sizes)
    assert lay.dim == sum(n for _, n in sizes)
    seen = np.zeros(lay.dim, dtype=int)
    for name, _ in sizes:
        seen[lay.slice_of(name)] += 1
    assert np.all(seen == 1)


# --------------------------------------------------------------------------
# ParamVector
# --------------------------------------------------------------------------


def test_paramvector_is_immutable():
    v = ParamVector(Layout([("a", 3)]), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        v.values[0] = 99.0
    # and construction copies, so mutating the source has no effect
    src = np.array([1.0, 2.0, 3.0])
    w = ParamVector(Layout([("a", 3)]), src)
    src[0] = -1.0
    assert w.values[0] == 1.0


def test_paramvector_without_copy_freezes_the_given_array():
    lay = Layout([("a", 3)])
    src = np.array([1.0, 2.0, 3.0])
    v = ParamVector(lay, src, copy=False)
    assert np.shares_memory(v.values, src)
    assert not src.flags.writeable
    with pytest.raises(ValueError):
        src[0] = 99.0
    # the default still copies and leaves the source writable
    src2 = np.array([1.0, 2.0, 3.0])
    w = ParamVector(lay, src2)
    assert not np.shares_memory(w.values, src2)
    assert src2.flags.writeable


def test_paramvector_shape_must_match_layout():
    with pytest.raises(LayoutMismatch):
        ParamVector(Layout([("a", 3)]), [1.0, 2.0])


def test_segment_views_and_updates():
    lay = Layout([("a", 2), ("b", 2)])
    v = ParamVector(lay, [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(v.segment("b"), [3.0, 4.0])
    w = v.with_segment("a", [9.0, 9.0])
    assert np.array_equal(w.values, [9.0, 9.0, 3.0, 4.0])
    u = v.add_to_segment("b", [1.0, -1.0])
    assert np.array_equal(u.values, [1.0, 2.0, 4.0, 3.0])
    # originals unchanged
    assert np.array_equal(v.values, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(LayoutMismatch):
        v.with_segment("a", [1.0, 2.0, 3.0])


def test_arithmetic_requires_identical_layouts():
    a = ParamVector(Layout([("a", 2)]), [1.0, 2.0])
    b = ParamVector(Layout([("b", 2)]), [1.0, 2.0])
    with pytest.raises(LayoutMismatch):
        a + b
    with pytest.raises(LayoutMismatch):
        a.dot(b)


vec_st = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=4, max_size=4
)


@given(u=vec_st, v=vec_st, c=st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_vector_space_identities(u, v, c):
    lay = Layout([("a", 2), ("b", 2)])
    pu = ParamVector(lay, u)
    pv = ParamVector(lay, v)
    assert np.allclose((pu + pv).values, (pv + pu).values)
    assert np.allclose((pu - pv).values, (pu + (-pv)).values)
    assert np.allclose((c * pu).values, (pu * c).values)
    assert np.isclose(pu.dot(pv), pv.dot(pu))
    assert np.isclose(pu.norm() ** 2, pu.dot(pu))


def test_norm_helpers_and_finiteness():
    lay = Layout([("a", 3)])
    v = ParamVector(lay, [3.0, -4.0, 0.0])
    assert v.norm() == 5.0
    assert v.inf_norm() == 4.0
    assert v.is_finite()
    assert not ParamVector(lay, [1.0, np.nan, 0.0]).is_finite()
    assert ParamVector.zeros(lay).norm() == 0.0


def test_equal_vectors_hash_equal_across_signed_zeros():
    lay = Layout([("a", 2)])
    a, b = ParamVector(lay, [0.0, 1.0]), ParamVector(lay, [-0.0, 1.0])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, ParamVector(lay, [0.0, -1.0])}) == 2


# --------------------------------------------------------------------------
# RngStream
# --------------------------------------------------------------------------

_M64 = (1 << 64) - 1


def _draws(gen):
    return (
        gen.random(7),
        gen.standard_normal(9),
        gen.integers(-50, 50, 11),
        gen.choice(40, size=13, replace=False),
    )


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 10**400, -1])
@pytest.mark.parametrize("child", [None, 0, 5])
def test_stream_draws_are_those_of_philox_keyed_by_seed_and_stream(seed, child):
    stream = RngStream(seed, 12345)
    if child is not None:
        stream = stream.child(child)
    key = np.array([seed & _M64, stream.stream_id & _M64], dtype=np.uint64)
    want = _draws(np.random.Generator(np.random.Philox(key=key)))
    for got, expected in zip(_draws(stream.generator()), want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def test_generators_taken_in_turn_stay_independent():
    # each generator draws what it draws alone, whatever generators of its
    # own stream or another draw between its draws
    streams = [RngStream(3, 1), RngStream(3, 2), RngStream(3, 1)]
    alone = []
    for stream in streams:
        gen = stream.generator()
        alone.append(_draws(gen) + _draws(gen))
    gens = [stream.generator() for stream in streams]
    interleaved = [[] for _ in streams]
    for _ in range(2):
        for got, gen in zip(interleaved, gens):
            got.extend(_draws(gen))
    for got, want in zip(interleaved, alone):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_rng_stream_is_reproducible():
    a = RngStream(42, 7).generator().standard_normal(5)
    b = RngStream(42, 7).generator().standard_normal(5)
    assert np.array_equal(a, b)


def test_rng_streams_differ_across_ids_and_seeds():
    base = RngStream(42, 7).generator().standard_normal(5)
    other_id = RngStream(42, 8).generator().standard_normal(5)
    other_seed = RngStream(43, 7).generator().standard_normal(5)
    assert not np.array_equal(base, other_id)
    assert not np.array_equal(base, other_seed)


def test_child_streams_are_deterministic_and_distinct():
    root = RngStream(1, 5)
    assert root.child(3) == root.child(3)
    ids = {root.child(i).stream_id for i in range(100)}
    assert len(ids) == 100
    # nested children also stay distinct
    nested = {root.child(i).child(j).stream_id for i in range(10) for j in range(10)}
    assert len(nested) == 100


# --------------------------------------------------------------------------
# conjugate gradient
# --------------------------------------------------------------------------


def _spd_matrix(gen, n):
    m = gen.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def test_cg_solves_spd_system_to_tolerance():
    gen = np.random.default_rng(3)
    n = 12
    a = _spd_matrix(gen, n)
    lay = Layout([("q", n)])
    b = ParamVector(lay, gen.standard_normal(n))
    sol = conjugate_gradient(lambda v: v.like(a @ v.values), b, tol=1e-12)
    assert sol.converged
    expected = np.linalg.solve(a, b.values)
    assert np.allclose(sol.q.values, expected, atol=1e-9)
    assert sol.residual <= 1e-12 * max(1.0, b.norm())


def test_cg_zero_rhs_returns_zero_in_zero_iterations():
    lay = Layout([("q", 4)])
    sol = conjugate_gradient(lambda v: v, ParamVector.zeros(lay))
    assert sol.iters == 0
    assert sol.converged
    assert np.array_equal(sol.q.values, np.zeros(4))


def test_cg_identity_map_converges_in_one_iteration():
    lay = Layout([("q", 6)])
    b = ParamVector(lay, np.arange(1.0, 7.0))
    sol = conjugate_gradient(lambda v: v, b, tol=1e-14)
    assert sol.iters == 1
    assert np.allclose(sol.q.values, b.values)


def test_cg_rejects_indefinite_maps():
    lay = Layout([("q", 3)])
    b = ParamVector(lay, [1.0, 0.0, 0.0])
    with pytest.raises(IndefiniteCurvature):
        conjugate_gradient(lambda v: -1.0 * v, b)


def test_cg_iteration_cap_reports_nonconvergence():
    gen = np.random.default_rng(5)
    n = 30
    # poorly conditioned so 2 iterations cannot finish
    m = gen.standard_normal((n, n))
    a = m @ m.T + 1e-3 * np.eye(n)
    lay = Layout([("q", n)])
    b = ParamVector(lay, gen.standard_normal(n))
    sol = conjugate_gradient(lambda v: v.like(a @ v.values), b, tol=1e-14, max_iter=2)
    assert sol.iters == 2
    assert not sol.converged
    assert sol.residual > 0


def _row_map(mats):
    """A linear map acting on each row of a stack with its own matrix."""
    return lambda v: np.stack([m @ row for m, row in zip(mats, v)])


@pytest.mark.parametrize("max_iter", (None, 3))
def test_cg_batch_rows_match_their_solves_alone(max_iter):
    gen = np.random.default_rng(8)
    n = 10
    m = gen.standard_normal((n, n))
    mats = [_spd_matrix(gen, n), m @ m.T + 1e-2 * np.eye(n), 3.0 * np.eye(n), _spd_matrix(gen, n)]
    b = gen.standard_normal((len(mats), n))
    b[3] = 0.0
    q, iters, residual, converged = conjugate_gradient_batch(
        _row_map(mats), b, tol=1e-12, max_iter=max_iter
    )
    lay = Layout([("q", n)])
    for j, a in enumerate(mats):
        solo = conjugate_gradient(
            lambda v, a=a: v.like(a @ v.values), ParamVector(lay, b[j]),
            tol=1e-12, max_iter=max_iter,
        )
        assert np.array_equal(q[j], solo.q.values)
        assert (iters[j], residual[j], converged[j]) == (
            solo.iters, solo.residual, solo.converged
        )
    # the rows stop at iterations of their own
    assert len(set(iters.tolist())) >= 3


def test_cg_batch_raises_what_the_failing_row_raises_alone():
    gen = np.random.default_rng(9)
    n = 4
    indefinite = np.diag([3.0, 2.0, 1.0, -0.5])
    mats = [_spd_matrix(gen, n), indefinite, _spd_matrix(gen, n)]
    b = np.ones((3, n))
    with pytest.raises(IndefiniteCurvature) as alone:
        conjugate_gradient(
            lambda v: v.like(indefinite @ v.values), ParamVector(Layout([("q", n)]), b[1])
        )
    with pytest.raises(IndefiniteCurvature) as batched:
        conjugate_gradient_batch(_row_map(mats), b)
    assert str(batched.value) == str(alone.value)


def test_cg_raises_on_a_nan_right_hand_side_row():
    gen = np.random.default_rng(10)
    n = 4
    mats = [_spd_matrix(gen, n) for _ in range(3)]
    b = gen.standard_normal((3, n))
    b[1, 2] = np.nan
    with pytest.raises(NonFiniteValue):
        conjugate_gradient(
            lambda v: v.like(mats[1] @ v.values), ParamVector(Layout([("q", n)]), b[1])
        )
    with pytest.raises(NonFiniteValue):
        conjugate_gradient_batch(_row_map(mats), b)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("entry", [np.inf, -np.inf, 1e300], ids=["inf", "-inf", "overflow"])
def test_cg_raises_on_a_right_hand_side_row_that_is_not_finite(entry):
    # a positive diagonal map per row, so an inf entry stays inf and never
    # meets a zero; 1e300 squared overflows the row's norm
    gen = np.random.default_rng(11)
    n = 4
    scales = 1.0 + gen.random((3, n))
    b = gen.standard_normal((3, n))
    b[1, 2] = entry
    with pytest.raises(NonFiniteValue, match="non-finite inner product in CG"):
        conjugate_gradient(
            lambda v: v.like(scales[1] * v.values), ParamVector(Layout([("q", n)]), b[1])
        )
    with pytest.raises(NonFiniteValue, match="non-finite inner product in CG"):
        conjugate_gradient_batch(lambda v: scales * v, b)


def _ill_conditioned(gen, n, top):
    """An SPD matrix with eigenvalues logspaced from 1 to 10**top."""
    basis, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return (basis * np.logspace(0, top, n)) @ basis.T


@pytest.mark.parametrize("seed", range(4))
def test_cg_batch_rows_that_restart_match_their_solves_alone(seed):
    # at tol 1e-10 the recursive residual of an ill-conditioned row meets
    # the bound before the true one does, so the row restarts from it
    gen = np.random.default_rng(seed)
    n, tol, max_iter = 12, 1e-10, 100
    mats = [_ill_conditioned(gen, n, top) for top in (6.0, 6.5, 7.0, 7.5, 12.0)]
    mats.insert(2, np.eye(n))
    b = gen.standard_normal((len(mats), n))
    b[2] = 0.0
    q, iters, residual, converged = conjugate_gradient_batch(
        _row_map(mats), b, tol=tol, max_iter=max_iter
    )
    restarted = []
    for j, a in enumerate(mats):
        applied = []

        def apply(v, a=a, applied=applied):
            applied.append(1)
            return v.like(a @ v.values)

        solo = conjugate_gradient(apply, ParamVector(Layout([("q", n)]), b[j]), tol, max_iter)
        assert q[j].tobytes() == solo.q.values.tobytes()
        assert (iters[j], residual[j], converged[j]) == (
            solo.iters, solo.residual, solo.converged
        )
        # one application per iteration and one per true-residual check or
        # final residual: a row whose only check stopped it has one more
        restarted.append(len(applied) > solo.iters + 1)
    assert (iters[2], converged[2]) == (0, True)
    assert converged.any() and not converged.all()
    assert any(restarted)


@pytest.mark.parametrize("seed", range(4))
def test_cg_converges_on_a_low_rank_plus_ridge_map(seed):
    # the shape of a softmax head's Hessian: a rank-12 data term and a small
    # ridge, so the residual norm rises and falls on the way down
    gen = np.random.default_rng(seed)
    n, rank, ridge, tol = 85, 12, 1e-2, 1e-8
    u = 100.0 * gen.standard_normal((n, rank))
    a = u @ u.T + ridge * np.eye(n)
    b = ParamVector(Layout([("q", n)]), gen.standard_normal(n))
    sol = conjugate_gradient(lambda v: v.like(a @ v.values), b, tol=tol)
    assert sol.converged
    assert sol.iters <= rank + 4
    true_residual = np.linalg.norm(a @ sol.q.values - b.values)
    assert sol.residual == pytest.approx(true_residual, rel=1e-9)
    assert true_residual <= tol * max(1.0, b.norm())


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_cg_matches_dense_solver_on_random_spd_systems(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 9))
    a = _spd_matrix(gen, n)
    lay = Layout([("q", n)])
    b = ParamVector(lay, gen.standard_normal(n))
    sol = conjugate_gradient(lambda v: v.like(a @ v.values), b, tol=1e-12)
    assert sol.converged
    assert np.allclose(sol.q.values, np.linalg.solve(a, b.values), atol=1e-8)


# --------------------------------------------------------------------------
# finite differences
# --------------------------------------------------------------------------


def test_fd_gradient_exact_on_quadratics():
    # central differences have zero truncation error on quadratics
    gen = np.random.default_rng(11)
    n = 5
    a = _spd_matrix(gen, n)
    c = gen.standard_normal(n)
    lay = Layout([("p", n)])
    p = ParamVector(lay, gen.standard_normal(n))

    def h(v):
        return 0.5 * v.values @ a @ v.values + c @ v.values

    g = fd_gradient(h, p, eps=1e-4)
    assert np.allclose(g.values, a @ p.values + c, atol=1e-7)


def test_fd_hvp_matches_dense_hessian():
    gen = np.random.default_rng(13)
    n = 6
    a = _spd_matrix(gen, n)
    lay = Layout([("p", n)])
    p = ParamVector(lay, gen.standard_normal(n))
    v = ParamVector(lay, gen.standard_normal(n))
    hv = fd_hvp(lambda q: q.like(a @ q.values), p, v)
    assert np.allclose(hv.values, a @ v.values, atol=1e-6)


def test_fd_helpers_validate_inputs():
    lay = Layout([("p", 2)])
    p = ParamVector(lay, [1.0, 2.0])
    with pytest.raises(ValueError):
        fd_gradient(lambda v: 0.0, p, eps=0.0)
    other = ParamVector(Layout([("q", 2)]), [1.0, 2.0])
    with pytest.raises(LayoutMismatch):
        fd_hvp(lambda q: q, p, other)
