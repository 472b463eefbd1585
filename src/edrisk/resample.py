"""Row splitting and minority-class bootstrap.

All sampling is a pure function of (inputs, seed) via numpy's PCG64
generator, so any split or bootstrap plan reproduces exactly from its
recorded seed.  Split sizes use the floor convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ResampleError(Exception):
    pass


class DegenerateSplit(ResampleError):
    pass


class SingleClass(ResampleError):
    pass


@dataclass
class SplitIndices:
    first: np.ndarray  # e.g. pretrain, or train
    second: np.ndarray  # e.g. test, or validation
    seed: int


@dataclass
class BootstrapPlan:
    indices: np.ndarray  # row indices with repetition; originals first
    seed: int

    @property
    def n_rows(self) -> int:
        return len(self.indices)


def split(n_rows: int, fraction: float, seed: int) -> SplitIndices:
    """Uniformly shuffle 0..n_rows-1 and cut at floor(fraction * n_rows)."""
    if not 0.0 < fraction < 1.0:
        raise DegenerateSplit(f"fraction {fraction} outside (0, 1)")
    if n_rows < 2:
        raise DegenerateSplit(f"cannot split {n_rows} rows")
    k = int(np.floor(fraction * n_rows))
    if k == 0 or k == n_rows:
        raise DegenerateSplit(f"split {k}/{n_rows - k} has an empty side")
    perm = np.random.default_rng(seed).permutation(n_rows)
    return SplitIndices(first=perm[:k], second=perm[k:], seed=seed)


def balance_bootstrap(labels: np.ndarray, seed: int) -> BootstrapPlan:
    """Keep every row once, then draw minority rows with replacement until
    class counts are equal.  Output size is 2 * n_majority."""
    labels = np.asarray(labels)
    n = len(labels)
    minority_idx = np.flatnonzero(labels == 1)
    majority_idx = np.flatnonzero(labels == 0)
    if len(minority_idx) == 0 or len(majority_idx) == 0:
        raise SingleClass("both classes must be present to balance")
    if len(minority_idx) > len(majority_idx):
        minority_idx, majority_idx = majority_idx, minority_idx
    deficit = len(majority_idx) - len(minority_idx)
    rng = np.random.default_rng(seed)
    extra = rng.choice(minority_idx, size=deficit, replace=True)
    return BootstrapPlan(indices=np.concatenate([np.arange(n), extra]), seed=seed)


def train_val_split(plan_size: int, fraction: float, seed: int) -> SplitIndices:
    """Split the bootstrapped rows (by position in the plan) into train/validation."""
    return split(plan_size, fraction, seed)


def save_indices(indices: np.ndarray, seed: int, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# seed={seed}\n")
        for i in indices:
            f.write(f"{i}\n")


def load_indices(path) -> tuple[np.ndarray, int]:
    """Read an index file written by ``save_indices``.  Entries are not
    range-checked here: only the caller knows how many rows they index."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip()
            if not header.startswith("# seed="):
                raise ResampleError(f"{path}: missing seed header")
            seed = int(header.removeprefix("# seed="))
            idx = np.array([int(line) for line in f], dtype=np.int64)
    except (ValueError, OverflowError) as e:  # a non-integer line, or bytes that are not UTF-8
        raise ResampleError(f"{path}: {e}") from None
    return idx, seed
