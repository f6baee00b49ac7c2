"""Flat parameter vectors with named segments, deterministic counter-based
RNG streams, and a matrix-free conjugate-gradient solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    "segment_add",
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
        return isinstance(other, Layout) and self._segments == other._segments

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
        out = segment_add(self.values, self.layout, name, np.asarray(values, dtype=np.float64))
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
        return hash((self.layout, self.values.tobytes()))

    def __repr__(self) -> str:
        return f"ParamVector({self.layout}, {self.values!r})"


def segment_add(rows: np.ndarray, layout: Layout, name: str, part) -> np.ndarray:
    """A copy of rows, (..., layout.dim), with part added to segment `name`
    of each row."""
    out = rows.copy()
    out[..., layout.slice_of(name)] += part
    return out


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
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

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
    of its solve alone.
    The map is applied to the whole stack, finished rows included, and every
    update runs on the whole stack too: finished rows step by zero. Returns
    (q, iters, residual, converged), one entry per row. Raises what the
    first row, in row order, to fail would raise alone, at the iteration
    where it would.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 10 * b.shape[-1]
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    # fmax and the negated test keep a NaN row live, so it raises below
    bound = tol * np.fmax(1.0, np.sqrt(row_dots(b, b)))
    q = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    rs = row_dots(r, r)
    residual = np.sqrt(rs)
    live = ~(residual <= bound)  # rows still iterating; they share the count
    iters = np.zeros(len(b), dtype=int)
    count = 0
    while live.any() and count < max_iter:
        ap = apply(p)
        pap = row_dots(p, ap)
        failed = live & ~(np.isfinite(pap) & np.isfinite(rs) & (pap > 0.0))
        if failed.any():
            j = int(np.argmax(failed))
            if not (np.isfinite(pap[j]) and np.isfinite(rs[j])):
                raise NonFiniteValue("non-finite inner product in CG")
            raise IndefiniteCurvature(
                f"<p, Ap> = {pap[j]:.3e} <= 0: map is not positive definite"
            )
        # finished rows step by zero, so a live row's arithmetic is its own
        alpha = np.divide(rs, pap, out=np.zeros_like(rs), where=live)[:, None]
        q += alpha * p
        r -= alpha * ap
        count += 1

        rs_new = row_dots(r, r)
        if not np.isfinite(rs_new[live]).all():
            raise NonFiniteValue("non-finite residual in CG")
        small = live & (np.sqrt(rs_new) <= bound)
        if small.any():
            true_r = b - apply(q)
            true_norm = np.sqrt(row_dots(true_r, true_r))
            done = small & (true_norm <= bound)
            iters[done], residual[done] = count, true_norm[done]
            live &= ~done
            # the recursive residual was optimistic: restart from the true one
            restart = small & ~done
            r[restart] = true_r[restart]
            p[restart] = true_r[restart]
            rs[restart] = row_dots(r[restart], r[restart])
        onward = live & ~small
        beta = np.divide(rs_new, rs, out=np.zeros_like(rs), where=onward)[:, None]
        p = np.where(onward[:, None], r + beta * p, p)
        rs = np.where(onward, rs_new, rs)

    if live.any():
        tail = b - apply(q)
        iters[live], residual[live] = count, np.sqrt(row_dots(tail, tail))[live]
    return q, iters, residual, residual <= bound
