"""Episodic task construction: N-way K-shot sampling with train/validation
splits, from synthetic Gaussian clusters or a class-per-directory CSV corpus.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    EmptyClass,
    InsufficientClasses,
    InsufficientItemsPerClass,
    MixedDimensions,
    ParseError,
)
from .numerics import RngStream

__all__ = [
    "Example",
    "TaskDataset",
    "TaskBatch",
    "EpisodeSpec",
    "DatasetSource",
    "SyntheticGaussian",
    "ClassDirectory",
    "load_class_directory",
    "sample_task_batch",
]


@dataclass(frozen=True)
class Example:
    """One labelled feature vector. Labels are episode-local class indices."""

    features: np.ndarray
    label: int


@dataclass(frozen=True)
class TaskDataset:
    """One task: disjoint train (support) and validation (query) splits.

    Each split is a (rows, dim) feature array with one label per row. Labels
    in both splits are remapped to 0..way-1 in the order classes were
    sampled, consistently across the two splits.
    """

    train_features: np.ndarray
    train_labels: np.ndarray
    val_features: np.ndarray
    val_labels: np.ndarray

    @cached_property
    def train(self) -> tuple[Example, ...]:
        return _examples(self.train_features, self.train_labels)

    @cached_property
    def val(self) -> tuple[Example, ...]:
        return _examples(self.val_features, self.val_labels)


def _examples(features: np.ndarray, labels: np.ndarray) -> tuple[Example, ...]:
    return tuple(Example(row, int(label)) for row, label in zip(features, labels))


class TaskBatch:
    """Tasks of one episode shape, stacked on a leading task axis: (tasks,
    rows, dim) features and (tasks, rows) labels.

    The sampler builds a batch from the stacks it drew (`TaskBatch.stacked`);
    `tasks`, one TaskDataset view per row, is then built on first use. Built
    from a sequence of tasks (None for a problem without data), it is the
    stacks that are built on first use.
    """

    def __init__(self, tasks):
        # instance attributes shadow the cached properties below
        self.tasks = tuple(tasks)
        self._size = len(self.tasks)

    @classmethod
    def stacked(cls, train_features, train_labels, val_features, val_labels) -> "TaskBatch":
        batch = cls.__new__(cls)
        batch._size = len(train_features)
        batch.train_features, batch.train_labels = train_features, train_labels
        batch.val_features, batch.val_labels = val_features, val_labels
        return batch

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self.tasks)

    @cached_property
    def tasks(self) -> tuple[TaskDataset, ...]:
        return tuple(map(
            TaskDataset,
            self.train_features, self.train_labels, self.val_features, self.val_labels,
        ))

    @cached_property
    def train_features(self) -> np.ndarray:
        return np.stack([t.train_features for t in self.tasks])

    @cached_property
    def train_labels(self) -> np.ndarray:
        return np.stack([t.train_labels for t in self.tasks])

    @cached_property
    def val_features(self) -> np.ndarray:
        return np.stack([t.val_features for t in self.tasks])

    @cached_property
    def val_labels(self) -> np.ndarray:
        return np.stack([t.val_labels for t in self.tasks])


@dataclass(frozen=True)
class EpisodeSpec:
    way: int
    shot: int
    query: int
    batch_size: int = 1

    def __post_init__(self):
        for name in ("way", "shot", "query", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"EpisodeSpec.{name} must be >= 1")


class DatasetSource(abc.ABC):
    """A pool of classes from which episodes are drawn.

    A source implements `class_names`, `feature_dim`, `capacity` and
    `draw_batch`, which draws the items of every chosen class of a whole
    task batch from one generator. `draw` is its one-row case.
    """

    @abc.abstractmethod
    def class_names(self) -> tuple[str, ...]: ...

    @abc.abstractmethod
    def feature_dim(self) -> int: ...

    @abc.abstractmethod
    def capacity(self, name: str) -> int | None:
        """Number of distinct items available for a class; None if unbounded."""

    @abc.abstractmethod
    def draw_batch(self, chosen: np.ndarray, count: int, gen: np.random.Generator) -> np.ndarray:
        """`count` items of each class in `chosen`, a (tasks, way) array of
        indices into class_names(), as a (tasks, way, count, dim) array.

        Items are drawn without replacement within each class, and the draws
        fill the rows in task order, so a task's items do not depend on how
        many tasks follow it.
        """

    def draw(self, name: str, count: int, gen: np.random.Generator) -> np.ndarray:
        """Sample `count` items of one class without replacement as a
        (count, dim) array: draw_batch for one task of one class."""
        chosen = np.array([[self.class_names().index(name)]])
        return self.draw_batch(chosen, count, gen)[0, 0]

    @cached_property
    def _capacities(self) -> np.ndarray:
        """The capacity of each class in class_names() order, inf if unbounded."""
        caps = map(self.capacity, self.class_names())
        return np.array([np.inf if c is None else c for c in caps])


@dataclass(frozen=True)
class SyntheticGaussian(DatasetSource):
    """Gaussian clusters around class centers drawn once per seed.

    Center c is uniform on [-cluster_spread, cluster_spread]^dim; items are
    c + noise_sd * standard normal. Fresh noise per draw, so items are
    distinct with probability one.
    """

    num_classes: int
    dim: int
    cluster_spread: float = 10.0
    noise_sd: float = 0.1
    seed: int = 0

    # stream id reserved for the one-time center draw
    _CENTER_STREAM = 0xC3A7E5

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")

    @cached_property
    def centers(self) -> np.ndarray:
        gen = RngStream(self.seed, self._CENTER_STREAM).generator()
        return gen.uniform(
            -self.cluster_spread, self.cluster_spread, (self.num_classes, self.dim)
        )

    @cached_property
    def _names(self) -> tuple[str, ...]:
        return tuple(f"class_{i:03d}" for i in range(self.num_classes))

    def class_names(self) -> tuple[str, ...]:
        return self._names

    def feature_dim(self) -> int:
        return self.dim

    def capacity(self, name: str) -> int | None:
        return None

    def draw_batch(self, chosen: np.ndarray, count: int, gen: np.random.Generator) -> np.ndarray:
        noise = gen.standard_normal(chosen.shape + (count, self.dim))
        return self.centers[chosen][..., None, :] + self.noise_sd * noise


class ClassDirectory(DatasetSource):
    """In-memory table loaded from a class-per-subdirectory CSV tree."""

    def __init__(self, table: Mapping[str, np.ndarray]):
        if not table:
            raise EmptyClass("class table has no classes")
        self._table = {name: np.asarray(rows, dtype=np.float64) for name, rows in table.items()}
        dims = {arr.shape[1] for arr in self._table.values()}
        if len(dims) != 1:
            raise MixedDimensions(f"classes disagree on feature dimension: {sorted(dims)}")
        self._dim = dims.pop()
        self._names = tuple(sorted(self._table))

    @classmethod
    def from_path(cls, root, file_format: str = "csv") -> "ClassDirectory":
        return cls(load_class_directory(root, file_format))

    def class_names(self) -> tuple[str, ...]:
        return self._names

    def feature_dim(self) -> int:
        return self._dim

    def capacity(self, name: str) -> int | None:
        return int(self._table[name].shape[0])

    def draw_batch(self, chosen: np.ndarray, count: int, gen: np.random.Generator) -> np.ndarray:
        out = np.empty(chosen.shape + (count, self._dim))
        for pos, class_idx in np.ndenumerate(chosen):
            rows = self._table[self._names[class_idx]]
            out[pos] = rows[gen.choice(rows.shape[0], size=count, replace=False)]
        return out


def load_class_directory(root, file_format: str = "csv") -> dict[str, np.ndarray]:
    """Read a class-per-subdirectory corpus into a class table.

    Each immediate subdirectory of `root` is one class holding one or more
    CSV files: UTF-8, comma-separated decimal literals, one example per row,
    no header. All rows across the whole source must share one width.
    """
    if file_format != "csv":
        raise ValueError(f"unsupported file format {file_format!r} (only 'csv')")
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"class directory root {root} does not exist")

    table: dict[str, list[np.ndarray]] = {}
    dim: int | None = None
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        rows: list[np.ndarray] = []
        for csv_path in sorted(class_dir.glob("*.csv")):
            with open(csv_path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = np.array([float(tok) for tok in line.split(",")])
                    except ValueError as exc:
                        raise ParseError(f"{csv_path}:{lineno}: {exc}") from None
                    if dim is None:
                        dim = row.size
                    elif row.size != dim:
                        raise MixedDimensions(
                            f"{csv_path}:{lineno}: row has {row.size} features, expected {dim}"
                        )
                    rows.append(row)
        if not rows:
            raise EmptyClass(f"class directory {class_dir} holds no examples")
        table[class_dir.name] = np.stack(rows)
    if not table:
        raise EmptyClass(f"{root} has no class subdirectories")
    return table


def sample_task_batch(
    source: DatasetSource, spec: EpisodeSpec, rng: RngStream
) -> TaskBatch:
    """Draw a batch of independent N-way K-shot tasks.

    Classes are sampled without replacement per task; items without
    replacement per class. Labels are remapped to 0..way-1 by sampled order.
    The batch is a pure function of (source, spec, rng), drawn in two calls:
    each task's classes are the first `way` columns of the argsort of one
    (tasks, classes) uniform draw on rng.child(0), and all items come from
    one `source.draw_batch` on rng.child(1). Both draws fill the rows in
    task order, so growing batch_size never changes the earlier tasks.
    """
    names = source.class_names()
    if len(names) < spec.way:
        raise InsufficientClasses(
            f"need {spec.way} classes, source has {len(names)}"
        )
    n, shot, need = spec.batch_size, spec.shot, spec.shot + spec.query
    keys = rng.child(0).generator().random((n, len(names)))
    chosen = np.argsort(keys, axis=1)[:, : spec.way]
    caps = source._capacities
    short = chosen[caps[chosen] < need]
    if short.size:
        raise InsufficientItemsPerClass(
            f"class {names[short[0]]!r} has {int(caps[short[0]])} items, episode needs {need}"
        )
    items = np.asarray(
        source.draw_batch(chosen, need, rng.child(1).generator()), dtype=np.float64
    )
    labels = np.arange(spec.way, dtype=np.int64)
    return TaskBatch.stacked(
        items[:, :, :shot].reshape(n, spec.way * shot, -1),
        np.tile(np.repeat(labels, shot), (n, 1)),
        items[:, :, shot:].reshape(n, spec.way * spec.query, -1),
        np.tile(np.repeat(labels, spec.query), (n, 1)),
    )
