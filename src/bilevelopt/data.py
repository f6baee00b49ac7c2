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


@dataclass(frozen=True)
class TaskBatch:
    """Tasks of one episode shape; the split arrays stack them on a leading
    task axis, (tasks, rows, dim) for features and (tasks, rows) for labels."""

    tasks: tuple[TaskDataset, ...]

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

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
    """A pool of classes from which episodes are drawn."""

    @abc.abstractmethod
    def class_names(self) -> tuple[str, ...]: ...

    @abc.abstractmethod
    def feature_dim(self) -> int: ...

    @abc.abstractmethod
    def capacity(self, name: str) -> int | None:
        """Number of distinct items available for a class; None if unbounded."""

    @abc.abstractmethod
    def draw(self, name: str, count: int, gen: np.random.Generator) -> np.ndarray:
        """Sample `count` items without replacement as a (count, dim) array."""


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

    def class_names(self) -> tuple[str, ...]:
        return tuple(f"class_{i:03d}" for i in range(self.num_classes))

    def feature_dim(self) -> int:
        return self.dim

    def capacity(self, name: str) -> int | None:
        return None

    def draw(self, name: str, count: int, gen: np.random.Generator) -> np.ndarray:
        idx = int(name.rsplit("_", 1)[1])
        center = self.centers[idx]
        noise = gen.standard_normal((count, self.dim))
        return center + self.noise_sd * noise


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

    def draw(self, name: str, count: int, gen: np.random.Generator) -> np.ndarray:
        rows = self._table[name]
        idx = gen.choice(rows.shape[0], size=count, replace=False)
        return rows[idx]


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
    Each task owns a dedicated child stream, so the batch is a pure function
    of (source, spec, rng).
    """
    names = source.class_names()
    if len(names) < spec.way:
        raise InsufficientClasses(
            f"need {spec.way} classes, source has {len(names)}"
        )
    need = spec.shot + spec.query
    train_labels = np.repeat(np.arange(spec.way, dtype=np.int64), spec.shot)
    val_labels = np.repeat(np.arange(spec.way, dtype=np.int64), spec.query)
    tasks = []
    for j in range(spec.batch_size):
        gen = rng.child(j).generator()
        chosen = gen.choice(len(names), size=spec.way, replace=False)
        draws = []
        for class_idx in chosen:
            name = names[class_idx]
            cap = source.capacity(name)
            if cap is not None and cap < need:
                raise InsufficientItemsPerClass(
                    f"class {name!r} has {cap} items, episode needs {need}"
                )
            draws.append(source.draw(name, need, gen))
        tasks.append(
            TaskDataset(
                np.concatenate([d[: spec.shot] for d in draws], dtype=np.float64),
                train_labels.copy(),
                np.concatenate([d[spec.shot :] for d in draws], dtype=np.float64),
                val_labels.copy(),
            )
        )
    return TaskBatch(tuple(tasks))
