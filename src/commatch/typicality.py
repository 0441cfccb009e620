"""Joint types and epsilon-typicality over community-pair blocks.

A pair of equal-length sequences is jointly epsilon-typical for a joint
distribution P when every entry of its empirical joint distribution sits
within eps of the corresponding entry of P (absolute deviation, every cell).

Boundary semantics: a cell with count k out of n slots passes exactly when
the float64 expression abs(k / n - p) <= eps holds, with p and eps the given
floats; ties at the boundary therefore follow float rounding, not exact
rational arithmetic. `is_jointly_typical` evaluates that expression directly.
`count_windows` turns it into one inclusive integer window [lo, hi] of
passing counts per cell, which the matcher compares counts against; since
k / n is monotone in k the passing counts form an interval, so both forms
take the same decision on every count.

The undirected edge slots of a labeled graph pair split into blocks, one per
unordered community pair: the intra block of community i has n_i(n_i-1)/2
slots, the inter block of (i, j) has n_i * n_j. Slots are enumerated in a
canonical order (labels sorted ascending, row-major) so two graphs read
through their labelings align slot by slot.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ParameterError

DEFAULT_KAPPA = 2.0


def default_epsilon(n: int, kappa: float = DEFAULT_KAPPA) -> float:
    """Schedule eps_n = kappa * log2(n) / n used when no eps is given."""
    if n < 2:
        raise ParameterError(f"epsilon schedule needs n >= 2, got {n}")
    return kappa * math.log2(n) / n


def joint_type(x: Sequence[int], y: Sequence[int], shape: tuple[int, int] | None = None) -> np.ndarray:
    """Count joint symbol occurrences of two aligned sequences: an int array
    of the given shape, summing to the sequence length.

    shape fixes the alphabet sizes; when omitted it is inferred from the
    largest symbols present, which is usually only safe in throwaway code.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape or x.ndim != 1:
        raise ParameterError("joint_type needs two 1-d sequences of equal length")
    if shape is None:
        shape = (int(x.max()) + 1 if x.size else 1, int(y.max()) + 1 if y.size else 1)
    lx, ly = shape
    if x.size and (x.min() < 0 or x.max() >= lx or y.min() < 0 or y.max() >= ly):
        raise ParameterError("symbol out of alphabet range")
    return np.bincount(x * ly + y, minlength=lx * ly).reshape(lx, ly)


def is_jointly_typical(x: Sequence[int], y: Sequence[int], p: np.ndarray, eps: float) -> bool:
    """Entrywise |empirical/n - p| <= eps. Zero-length pairs are typical."""
    p = np.asarray(p, dtype=float)
    counts = joint_type(x, y, shape=p.shape)
    n = counts.sum()
    if n == 0:
        return True
    return bool(np.all(np.abs(counts / n - p) <= eps))


def count_windows(p: np.ndarray, eps: float, slots) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell inclusive ranges of typical counts out of slots >= 0, with
    slots (an int or an int array) broadcast against p.

    Count k in [0, slots] passes cell (x, y) exactly when
    lo[x, y] <= k <= hi[x, y], i.e. when abs(k / slots - p[x, y]) <= eps as
    `is_jointly_typical` evaluates it; with no slots the only count, 0,
    passes, since zero-length pairs are typical. A cell no count passes gets
    lo > hi. Results are memoized on (p, eps, slots) and shared, hence
    read-only.
    """
    p = np.asarray(p, dtype=float)
    slots = np.asarray(slots, dtype=np.intp)
    return _count_windows(p.tobytes(), p.shape, slots.tobytes(), slots.shape, float(eps))


@lru_cache(maxsize=1 << 12)
def _count_windows(p_bytes: bytes, p_shape: tuple[int, ...], slots_bytes: bytes,
                   slots_shape: tuple[int, ...], eps: float) -> tuple[np.ndarray, np.ndarray]:
    p = np.frombuffer(p_bytes).reshape(p_shape)[..., None]
    slots = np.frombuffer(slots_bytes, np.intp).reshape(slots_shape)[..., None]
    k = np.arange(slots.max(initial=0) + 1)
    with np.errstate(divide="ignore", invalid="ignore"):  # no slots: only k = 0 passes
        ok = (k <= slots) & ((slots == 0) | (np.abs(k / slots - p) <= eps))
    slots = slots[..., 0]
    lo = np.where(ok.any(axis=-1), ok.argmax(axis=-1), slots + 1)
    hi = np.where(ok.any(axis=-1), len(k) - 1 - ok[..., ::-1].argmax(axis=-1), slots)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


# -- block slot enumeration ---------------------------------------------------

def block_slots(labels_i: Sequence[int], labels_j: Sequence[int] | None = None) -> list[tuple[int, int]]:
    """Canonical slot order of one block.

    Intra block (labels_j omitted): strict upper triangle of the sorted label
    list, row-major. Inter block: full rectangle sorted(labels_i) x
    sorted(labels_j), row-major.
    """
    li = sorted(labels_i)
    if labels_j is None:
        return [(a, b) for ai, a in enumerate(li) for b in li[ai + 1:]]
    lj = sorted(labels_j)
    return [(a, b) for a in li for b in lj]


def _labels_by_community(comm_of_label: Sequence[int], c: int) -> list[list[int]]:
    groups: list[list[int]] = [[] for _ in range(c)]
    for label, i in enumerate(comm_of_label):
        groups[i].append(label)
    return groups


def paired_blocks(values1: np.ndarray,
                  comm1_of_label: Sequence[int],
                  values2: np.ndarray,
                  label_to_vertex2: Sequence[int],
                  comm2_of_vertex: Sequence[int],
                  c: int) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """Aligned block sequences of two symmetric value matrices: a dict from
    (i, j) with i <= j to a pair of equal-length int arrays.

    values1 is indexed by labels directly; values2 by its own vertex ids, with
    label_to_vertex2 translating a hypothesized labeling. Each side's labels
    are grouped by its own community map; per block the two sides are aligned
    positionally in canonical slot order. When the label groups coincide
    (community-preserving labelings) this is the slotwise alignment of equal
    label pairs.
    """
    n = len(comm1_of_label)
    comm2_of_label = [comm2_of_vertex[label_to_vertex2[a]] for a in range(n)]
    side1 = _labels_by_community(comm1_of_label, c)
    side2 = _labels_by_community(comm2_of_label, c)
    for i in range(c):
        if len(side1[i]) != len(side2[i]):
            raise ParameterError(
                f"community {i + 1} has {len(side1[i])} labels on side 1 "
                f"but {len(side2[i])} on side 2")
    blocks = {}
    for i in range(c):
        for j in range(i, c):
            slots1 = block_slots(side1[i], side1[j] if j != i else None)
            slots2 = block_slots(side2[i], side2[j] if j != i else None)
            seq1 = np.array([values1[a, b] for a, b in slots1], dtype=np.int64)
            seq2 = np.array(
                [values2[label_to_vertex2[a], label_to_vertex2[b]] for a, b in slots2],
                dtype=np.int64)
            blocks[(i, j)] = (seq1, seq2)
    return blocks


def blocks_jointly_typical(blocks: Mapping[tuple[int, int], tuple[np.ndarray, np.ndarray]],
                           joint: np.ndarray, eps: float) -> bool:
    """All blocks typical w.r.t. their community-pair distribution."""
    for (i, j), (a, b) in blocks.items():
        if not is_jointly_typical(a, b, joint[i, j], eps):
            return False
    return True
