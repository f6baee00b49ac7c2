"""conjugate_gradient_batch against a frozen copy of its earlier loop, which
screened each pass with array reductions and indexed the live rows of p
and the map's answer on every pass: equal bytes of every output, an equal
number of map applications, the same warnings, and the same exception
type and message, over batches that take every branch of the loop."""

import warnings

import numpy as np
import pytest

from bilevelopt import IndefiniteCurvature, NonFiniteValue
from bilevelopt.numerics import conjugate_gradient_batch, row_dots


def reference_cg_batch(apply, b, tol=1e-10, max_iter=None):
    """conjugate_gradient_batch as it was before its passes screened on
    Python floats; kept verbatim as the oracle."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 10 * b.shape[-1]
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    rs = row_dots(b, b)
    residual = np.sqrt(rs)
    bound = tol * np.fmax(1.0, residual)
    # rows still iterating, in row order; they share the count. A row whose
    # residual is NaN or inf stays live, so it raises below
    live = np.flatnonzero(~((residual <= bound) & (residual < np.inf)))
    rows = slice(None) if len(live) == len(b) else live  # p's and q's live rows
    q, p = np.zeros_like(b), b.copy()
    r, rs, bound_live = b[live], rs[live], bound[live]
    rs_max = rs.max(initial=0.0)  # of the live rows' <r, r>, NaN if one is
    iters = np.zeros(len(b), dtype=int)
    count = 0
    while len(live) and count < max_iter:
        ap = apply(p)
        p_live, ap = p[rows], ap[rows]
        pap = row_dots(p_live, ap)
        # a NaN fails every comparison, so three reductions screen the pass;
        # only a pass that fails them looks for its first failing row
        if not (rs_max < np.inf and 0.0 < pap.min() and pap.max() < np.inf):
            j = int(np.argmax(~(np.isfinite(pap) & np.isfinite(rs) & (pap > 0.0))))
            if not (np.isfinite(pap[j]) and np.isfinite(rs[j])):
                raise NonFiniteValue("non-finite inner product in CG")
            raise IndefiniteCurvature(f"<p, Ap> = {pap[j]:.3e} <= 0: map is not positive definite")
        alpha = (rs / pap)[:, None]
        q[rows] += alpha * p_live
        r -= alpha * ap
        count += 1

        rs_new = row_dots(r, r)
        rs_max = rs_new.max()
        if not rs_max < np.inf:
            raise NonFiniteValue("non-finite residual in CG")
        small = np.sqrt(rs_new) <= bound_live
        if not small.any():
            p[rows] = r + (rs_new / rs)[:, None] * p_live
            rs = rs_new
            continue
        true_r = b - apply(q)
        true_norm = np.sqrt(row_dots(true_r, true_r))[live]
        done = small & (true_norm <= bound_live)
        iters[live[done]], residual[live[done]] = count, true_norm[done]
        onward = ~small
        p[live[onward]] = r[onward] + (rs_new / rs)[onward, None] * p_live[onward]
        # the recursive residual was optimistic: restart from the true one
        restart = small & ~done
        r[restart] = p[live[restart]] = true_r[live[restart]]
        rs = rs_new
        rs[restart] = row_dots(r[restart], r[restart])
        keep = ~done
        live, r, rs, bound_live = live[keep], r[keep], rs[keep], bound_live[keep]
        rows, rs_max = live, rs.max(initial=0.0)

    if len(live):
        tail = b - apply(q)
        iters[live], residual[live] = count, np.sqrt(row_dots(tail, tail))[live]
    return q, iters, residual, residual <= bound


def _spd(gen, n, top=2.0):
    """An SPD matrix with eigenvalues logspaced from 1 to 10**top."""
    basis, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return (basis * np.logspace(0, top, n)) @ basis.T


def _matrix_map(mats, read_only=False, turns=None):
    """A map applying its own matrix to each row. With read_only, every
    answer is a read-only array; turns maps an application index to a
    function that edits that application's answer in place first."""

    def make():
        calls = []

        def apply(v):
            out = (mats @ v[:, :, None])[:, :, 0]
            if turns and len(calls) in turns:
                turns[len(calls)](out)
            calls.append(1)
            if read_only:
                out.setflags(write=False)
            return out

        return apply, calls

    return make


def _every_row_live(gen):
    mats = np.stack([_spd(gen, 12) for _ in range(4)])
    return _matrix_map(mats), gen.standard_normal((4, 12)), 1e-10, None


def _one_pass_for_all(gen):
    # equal rows finish together; a power-of-two scale keeps every bit
    mats = np.stack([_spd(gen, 8)] * 3)
    b = np.stack([gen.standard_normal(8)] * 3) * np.array([[1.0], [4.0], [0.5]])
    return _matrix_map(mats), b, 1e-10, None


def _rows_finish_on_different_passes(gen):
    n = 10
    mats = np.stack([_spd(gen, n, top) for top in (0.0, 1.0, 3.0, 4.0, 0.5)])
    return _matrix_map(mats), gen.standard_normal((5, n)), 1e-12, None


def _ill_conditioned_rows_restart(gen):
    n = 12
    mats = np.stack([_spd(gen, n, top) for top in (6.0, 6.5, 7.0, 7.5, 12.0)])
    return _matrix_map(mats), gen.standard_normal((5, n)), 1e-10, 100


def _zero_rows(gen):
    mats = np.stack([_spd(gen, 6) for _ in range(4)])
    b = gen.standard_normal((4, 6))
    b[[0, 2]] = 0.0
    return _matrix_map(mats), b, 1e-10, None


def _all_rows_zero(gen):
    return _matrix_map(np.stack([_spd(gen, 5)] * 2)), np.zeros((2, 5)), 1e-10, None


def _right_hand_side(entry):
    def build(gen):
        n = 4
        mats = np.stack([np.diag(1.0 + gen.random(n)) for _ in range(3)])
        b = gen.standard_normal((3, n))
        b[1, 2] = entry
        return _matrix_map(mats), b, 1e-10, None

    return build


def _overflowing_rhs_under_a_shrinking_map(gen):
    # <b, b> overflows while <p, Ap> stays finite: the screen must read <r, r>
    mats = np.stack([np.diag(1.0 + gen.random(4)) for _ in range(3)])
    mats[1] *= 1e-300
    b = gen.standard_normal((3, 4))
    b[1] = 1e300
    return _matrix_map(mats), b, 1e-10, None


def _indefinite_on_a_later_pass(gen):
    # <b, A b> > 0, but a later direction finds the negative eigenvalue
    n = 6
    bad = np.diag([10.0, 5.0, 3.0, 2.0, 1.0, -0.05])
    mats = np.stack([_spd(gen, n), bad, _spd(gen, n), bad])
    return _matrix_map(mats), np.ones((4, n)), 1e-10, None


def _map_turns_negative(gen):
    mats = np.stack([_spd(gen, 8) for _ in range(3)])

    def negate_row_2(out):
        out[2] *= -1.0

    turns = {3: negate_row_2}
    return _matrix_map(mats, turns=turns), gen.standard_normal((3, 8)), 1e-12, None


def _map_turns_nan(gen):
    mats = np.stack([_spd(gen, 8, 3.0) for _ in range(3)])

    def nan_in_row_1(out):
        out[1, 4] = np.nan

    return _matrix_map(mats, turns={4: nan_in_row_1}), gen.standard_normal((3, 8)), 1e-12, None


def _residual_overflows(gen):
    # row 0's first answer meets b's zero coordinate 1 with 1e300, so <p, Ap>
    # stays tiny and positive while alpha * Ap overflows the residual
    mats = np.stack([_spd(gen, 8) for _ in range(3)])
    b = gen.standard_normal((3, 8))
    b[0, :2] = 1.0, 0.0

    def blow_up_row_0(out):
        out[0] = 0.0
        out[0, :2] = 1e-300, 1e300

    return _matrix_map(mats, turns={0: blow_up_row_0}), b, 1e-12, None


def _capped(max_iter):
    def build(gen):
        n = 10
        mats = np.stack([_spd(gen, n, top) for top in (1.0, 4.0, 8.0)])
        return _matrix_map(mats), gen.standard_normal((3, n)), 1e-12, max_iter

    return build


def _read_only_answers(gen):
    n = 12
    mats = np.stack([_spd(gen, n, top) for top in (6.0, 1.0, 7.0, 0.0)])
    b = gen.standard_normal((4, n))
    b[1] = 0.0
    return _matrix_map(mats, read_only=True), b, 1e-10, 100


def _identity_answers_its_argument(gen):
    def make():
        calls = []

        def apply(v):
            calls.append(1)
            return v

        return apply, calls

    return make, gen.standard_normal((3, 7)), 1e-10, None


CASES = {
    "every-row-live": _every_row_live,
    "one-pass-for-all": _one_pass_for_all,
    "different-passes": _rows_finish_on_different_passes,
    "restarts": _ill_conditioned_rows_restart,
    "zero-rows": _zero_rows,
    "all-rows-zero": _all_rows_zero,
    "nan-rhs": _right_hand_side(np.nan),
    "inf-rhs": _right_hand_side(np.inf),
    "-inf-rhs": _right_hand_side(-np.inf),
    "1e300-rhs": _right_hand_side(1e300),
    "1e300-rhs-shrinking-map": _overflowing_rhs_under_a_shrinking_map,
    "indefinite-later": _indefinite_on_a_later_pass,
    "map-turns-negative": _map_turns_negative,
    "map-turns-nan": _map_turns_nan,
    "residual-overflows": _residual_overflows,
    "cap-1": _capped(1),
    "cap-2": _capped(2),
    "cap-7": _capped(7),
    "read-only-answers": _read_only_answers,
    "identity": _identity_answers_its_argument,
}


def _outcome(solver, make, b, tol, max_iter):
    """The solver's outputs as bytes, or its exception's type and message,
    with its map applications and the warnings it raised."""
    apply, calls = make()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = tuple(a.tobytes() for a in solver(apply, b.copy(), tol, max_iter))
        except (NonFiniteValue, IndefiniteCurvature) as e:
            result = (type(e), str(e))
    return result, len(calls), [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", CASES)
def test_cg_batch_equals_the_frozen_reference_loop(case, seed):
    make, b, tol, max_iter = CASES[case](np.random.default_rng(seed))
    want = _outcome(reference_cg_batch, make, b, tol, max_iter)
    got = _outcome(conjugate_gradient_batch, make, b, tol, max_iter)
    assert got == want


def test_the_cases_take_every_branch_of_the_loop():
    """Each failing case fails as named, and the solving cases include
    rows that stop on different passes and rows that restart."""
    outcomes = {
        name: _outcome(reference_cg_batch, *build(np.random.default_rng(0)))
        for name, build in CASES.items()
    }
    failing = {
        "nan-rhs": "non-finite inner product",
        "inf-rhs": "non-finite inner product",
        "-inf-rhs": "non-finite inner product",
        "1e300-rhs": "non-finite inner product",
        "1e300-rhs-shrinking-map": "non-finite inner product",
        "indefinite-later": "<= 0: map is not positive definite",
        "map-turns-negative": "<= 0: map is not positive definite",
        "map-turns-nan": "non-finite inner product",
        "residual-overflows": "non-finite residual",
    }
    for name, message in failing.items():
        assert message in outcomes[name][0][1], name
    # the indefinite row raises only after passes that were positive
    assert outcomes["indefinite-later"][1] > 1
    iters = {
        name: np.frombuffer(outcome[0][1], dtype=int)
        for name, outcome in outcomes.items() if name not in failing
    }
    assert len(set(iters["different-passes"].tolist())) >= 3
    assert len(set(iters["one-pass-for-all"].tolist())) == 1
    assert iters["all-rows-zero"].tolist() == [0, 0]
    assert set(iters["cap-2"].tolist()) == {2}
    # a restart costs a map application beyond one per pass and one check
    applied = outcomes["restarts"][1]
    assert applied > iters["restarts"].max() + len(set(iters["restarts"].tolist()))
