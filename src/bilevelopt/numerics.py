"""Flat parameter vectors with named segments, deterministic counter-based
RNG streams, and a matrix-free conjugate-gradient solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import (
    IndefiniteCurvature,
    LayoutMismatch,
    MissingSegment,
    NonFiniteValue,
)

__all__ = [
    "Layout",
    "ParamVector",
    "RngStream",
    "CgSolve",
    "conjugate_gradient",
    "conjugate_gradient_batch",
    "segment_rows",
    "row_dots",
]


@dataclass(frozen=True)
class Segment:
    name: str
    offset: int
    length: int


class Layout:
    """Ordered, contiguous, non-overlapping named segments of a flat vector.

    Built from (name, length) pairs; offsets are derived from the order, so
    contiguity and full coverage hold by construction.
    """

    __slots__ = ("_segments", "_by_name", "dim")

    def __init__(self, sizes: Sequence[tuple[str, int]]):
        if not sizes:
            raise ValueError("layout needs at least one segment")
        segments = []
        by_name = {}
        offset = 0
        for name, length in sizes:
            length = int(length)
            if not name:
                raise ValueError("segment names must be non-empty")
            if name in by_name:
                raise ValueError(f"duplicate segment name {name!r}")
            if length < 1:
                raise ValueError(f"segment {name!r} has non-positive length {length}")
            seg = Segment(str(name), offset, length)
            segments.append(seg)
            by_name[seg.name] = seg
            offset += length
        self._segments = tuple(segments)
        self._by_name = by_name
        self.dim = offset

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self._segments

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self._segments)

    def has(self, name: str) -> bool:
        return name in self._by_name

    def slice_of(self, name: str) -> slice:
        try:
            seg = self._by_name[name]
        except KeyError:
            raise MissingSegment(
                f"segment {name!r} not in layout {self.names}"
            ) from None
        return slice(seg.offset, seg.offset + seg.length)

    def length_of(self, name: str) -> int:
        return self._by_name[name].length if name in self._by_name else 0

    def extended(self, name: str, length: int) -> "Layout":
        """A new layout with one more segment appended at the end."""
        return Layout([(s.name, s.length) for s in self._segments] + [(name, length)])

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Layout) and self._segments == other._segments)

    def __hash__(self) -> int:
        return hash(self._segments)

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.name}:{s.length}" for s in self._segments)
        return f"Layout({inner})"


class ParamVector:
    """Immutable float64 vector carrying a segment layout.

    Arithmetic is only defined between vectors with identical layouts;
    anything else raises LayoutMismatch. With copy=False a float64 array is
    not copied but made read-only in place, so the caller hands it over and
    must not keep writing to it.
    """

    __slots__ = ("layout", "values")

    def __init__(self, layout: Layout, values, *, copy: bool = True):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (layout.dim,):
            raise LayoutMismatch(
                f"value shape {arr.shape} does not match layout dim {layout.dim}"
            )
        if copy:
            arr = arr.copy()
        arr.setflags(write=False)
        self.layout = layout
        self.values = arr

    @classmethod
    def zeros(cls, layout: Layout) -> "ParamVector":
        return cls(layout, np.zeros(layout.dim), copy=False)

    def like(self, values) -> "ParamVector":
        """Wrap a raw array in this vector's layout."""
        return ParamVector(self.layout, values)

    def segment(self, name: str) -> np.ndarray:
        return self.values[self.layout.slice_of(name)]

    def with_segment(self, name: str, values) -> "ParamVector":
        sl = self.layout.slice_of(name)
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != (sl.stop - sl.start,):
            raise LayoutMismatch(
                f"segment {name!r} expects length {sl.stop - sl.start}, got {arr.shape}"
            )
        out = self.values.copy()
        out[sl] = arr
        return ParamVector(self.layout, out, copy=False)

    def add_to_segment(self, name: str, values) -> "ParamVector":
        out = self.values.copy()
        out[self.layout.slice_of(name)] += np.asarray(values, dtype=np.float64)
        return ParamVector(self.layout, out, copy=False)

    def _check_same_layout(self, other: "ParamVector"):
        if self.layout != other.layout:
            raise LayoutMismatch(
                f"layouts differ: {self.layout} vs {other.layout}"
            )

    def __add__(self, other: "ParamVector") -> "ParamVector":
        self._check_same_layout(other)
        return ParamVector(self.layout, self.values + other.values, copy=False)

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        self._check_same_layout(other)
        return ParamVector(self.layout, self.values - other.values, copy=False)

    def __mul__(self, scalar: float) -> "ParamVector":
        return ParamVector(self.layout, self.values * float(scalar), copy=False)

    __rmul__ = __mul__

    def __neg__(self) -> "ParamVector":
        return ParamVector(self.layout, -self.values, copy=False)

    def dot(self, other: "ParamVector") -> float:
        self._check_same_layout(other)
        return float(self.values @ other.values)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def inf_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def is_finite(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParamVector)
            and self.layout == other.layout
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ holds equal
        return hash((self.layout, (self.values + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"ParamVector({self.layout}, {self.values!r})"


def segment_rows(layout: Layout, name: str, part: np.ndarray) -> np.ndarray:
    """Rows (..., layout.dim) that hold part, (..., length), in segment
    `name` and zero elsewhere."""
    out = np.zeros(part.shape[:-1] + (layout.dim,))
    out[..., layout.slice_of(name)] = part
    return out


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> of each pair of rows of two (..., dim) stacks, each taken
    exactly as a 1-D a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _PhiloxKey(ISeedSequence):
    """Hands a Philox bit generator its 128-bit key as the state it asks
    its seed sequence for. Philox(key=k) builds the same generator, but
    first seeds a throwaway SeedSequence from OS entropy, which costs
    more than the rest of its construction."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


@dataclass(frozen=True)
class RngStream:
    """Handle for a counter-based random stream.

    The same (seed, stream_id) pair always yields the same draw sequence;
    distinct stream ids are independent. `child` derives sub-streams
    deterministically, so per-task randomness never depends on evaluation
    order.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """A new generator of its own: the draws of
        np.random.Generator(np.random.Philox(key=[seed, stream_id])), each
        masked to 64 bits."""
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(_PhiloxKey(key)))

    def child(self, index: int) -> "RngStream":
        mixed = _splitmix64(((self.stream_id & _MASK64) * _GOLDEN + index + 1) & _MASK64)
        return RngStream(self.seed, mixed)


class CgSolve(NamedTuple):
    q: ParamVector
    iters: int
    residual: float
    converged: bool


def conjugate_gradient(
    apply: Callable[[ParamVector], ParamVector],
    b: ParamVector,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> CgSolve:
    """Solve apply(q) = b for a symmetric positive-definite linear map.

    Stops when the true residual satisfies ||apply(q) - b|| <= tol * max(1, ||b||),
    or returns the iterate at max_iter with its residual. The true residual
    is computed only once the recursive one meets that bound; if the true
    one does not, CG restarts from it. The recursive residual is otherwise
    left to rise and fall, as CG's residual norm is not monotone.

    Raises NonFiniteValue if any inner product turns NaN/Inf and
    IndefiniteCurvature when a search direction has <p, Ap> <= 0.
    """

    def apply_row(rows: np.ndarray) -> np.ndarray:
        out = apply(b.like(rows[0]))
        if out.layout != b.layout:
            raise LayoutMismatch("linear-map output layout differs from b")
        return out.values[None]

    q, iters, residual, converged = conjugate_gradient_batch(
        apply_row, b.values[None], tol, max_iter
    )
    return CgSolve(b.like(q[0]), int(iters[0]), float(residual[0]), bool(converged[0]))


def _all_finite(column: np.ndarray) -> bool:
    """Whether every float of a (rows, 1) column is below inf, as a NaN is not."""
    return all(v < math.inf for (v,) in column.tolist())


def conjugate_gradient_batch(
    apply: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """conjugate_gradient on each row of a (rows, dim) stack at once, for a
    map that acts on each row alone.

    Every row keeps its own step sizes, stopping test and restart from its
    true residual, so its solution, iteration count and residual are those
    of its solve alone. The map is applied to the whole stack, where a
    finished row keeps its last direction, but each pass updates only the
    rows still live; the map's answers are only read. Returns (q, iters, residual, converged), one entry per
    row. Raises what the first row, in row order, to fail would raise alone,
    at the iteration where it would; a row of b that is not finite, or whose
    norm overflows, raises NonFiniteValue at the first iteration.
    """
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
    q, p = np.zeros_like(b), b.copy()
    # the live rows of q and p: q and p themselves while every row is live
    ql, pl = (q, p) if len(live) == len(b) else (q[live], p[live])
    # <r, r> and <p, Ap> are (live, 1) columns, bounds the live rows' floats
    r, rs, bound_live = b[live], rs[live, None], bound[live]
    bounds, rs_ok = bound_live.tolist(), _all_finite(rs)
    iters = np.zeros(len(b), dtype=int)
    count = 0
    while len(live) and count < max_iter:
        if pl is not p:
            p[live] = pl
        ap = apply(p)
        if pl is not p:
            ap = ap[live]
        pap = (pl[:, None, :] @ ap[:, :, None])[:, 0]
        # a NaN fails every comparison, so one pass over the Python floats
        # screens the pass; only a pass that fails it looks for its first
        # failing row
        if not (rs_ok and all(0.0 < v < math.inf for (v,) in pap.tolist())):
            j = int(np.argmax(~(np.isfinite(pap) & np.isfinite(rs) & (pap > 0.0))))
            if not (np.isfinite(pap[j, 0]) and np.isfinite(rs[j, 0])):
                raise NonFiniteValue("non-finite inner product in CG")
            raise IndefiniteCurvature(f"<p, Ap> = {pap[j, 0]:.3e} <= 0: map is not positive definite")
        alpha = rs / pap
        ql += alpha * pl
        r -= alpha * ap
        count += 1

        rs_new = (r[:, None, :] @ r[:, :, None])[:, 0]
        if not _all_finite(rs_new):
            raise NonFiniteValue("non-finite residual in CG")
        # math.sqrt is IEEE sqrt, as np.sqrt is
        small = [math.sqrt(v) <= c for (v,), c in zip(rs_new.tolist(), bounds)]
        if not any(small):
            pl *= rs_new / rs  # then + r: the bits of r + beta * p
            pl += r
            rs = rs_new
            continue
        if ql is not q:
            q[live] = ql
        true_r = b - apply(q)
        true_norm = np.sqrt(row_dots(true_r, true_r))[live]
        small = np.array(small)
        done = small & (true_norm <= bound_live)
        iters[live[done]], residual[live[done]] = count, true_norm[done]
        onward = ~small
        pl[onward] = r[onward] + (rs_new / rs)[onward] * pl[onward]
        # the recursive residual was optimistic: restart from the true one
        restart = small & ~done
        r[restart] = pl[restart] = true_r[live[restart]]
        rs = rs_new
        rs[restart] = row_dots(r[restart], r[restart])[:, None]
        if done.any():
            keep = ~done
            live, r, rs, bound_live = live[keep], r[keep], rs[keep], bound_live[keep]
            ql, pl, bounds = ql[keep], pl[keep], bound_live.tolist()
        rs_ok = _all_finite(rs)

    if len(live):
        if ql is not q:
            q[live] = ql
        tail = b - apply(q)
        iters[live], residual[live] = count, np.sqrt(row_dots(tail, tail))[live]
    return q, iters, residual, residual <= bound
