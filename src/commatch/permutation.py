"""Permutations, cycle structure, and labeling algebra.

Indices are 0-based everywhere inside the package; file formats and printed
output use 1-based arrays, converted at the boundary by `to_one_based` /
`from_one_based`. Applying a permutation p to a sequence y yields the
sequence z with z[i] = y[p(i)], so the fixed points of p are exactly the
positions left untouched.

All types here are immutable and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ParameterError


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1} stored as an image tuple."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if n == 0:
            raise ParameterError("empty permutation")
        if sorted(self.mapping) != list(range(n)):
            raise ParameterError(f"not a bijection of 0..{n - 1}: {self.mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def apply(self, seq: Sequence) -> tuple:
        """Return z with z[i] = seq[p(i)]."""
        if len(seq) != self.n:
            raise ParameterError(f"sequence length {len(seq)} != permutation size {self.n}")
        return tuple(seq[j] for j in self.mapping)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: (self.compose(other))(i) = self(other(i))."""
        if other.n != self.n:
            raise ParameterError("size mismatch in composition")
        return Permutation(tuple(self.mapping[j] for j in other.mapping))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))


def _unchecked(mapping: tuple[int, ...]) -> Permutation:
    """The Permutation of an image tuple already known to be a bijection of
    0..n-1 (a row of a permutation table, say), without the check."""
    p = object.__new__(Permutation)
    p.__dict__["mapping"] = mapping  # the field is frozen against setattr
    return p


# A labeling assigns labels {0..n-1} to vertices {0..n-1}; structurally it is
# just a permutation (mapping[vertex] = label), so the type is shared.
Labeling = Permutation


@dataclass(frozen=True)
class CycleStructure:
    """Cycle parameters of a permutation.

    cycles holds only the nontrivial cycles (length >= 2), each rotated so its
    smallest element comes first, sorted by that smallest element. lengths is
    the sorted multiset of cycle lengths, m the number of fixed points.
    """

    n: int
    m: int
    cycles: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.cycles))


def cycle_decomposition(p: Permutation) -> CycleStructure:
    """Decompose p into canonical cycles plus a fixed-point count."""
    seen = [False] * p.n
    cycles = []
    m = 0
    for start in range(p.n):
        if seen[start]:
            continue
        cur = start
        cyc = []
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = p.mapping[cur]
        if len(cyc) == 1:
            m += 1
        else:
            cycles.append(tuple(cyc))
    return CycleStructure(n=p.n, m=m, cycles=tuple(cycles))


def standard_permutation(m: int, lengths: Iterable[int], n: int) -> Permutation:
    """The canonical permutation with the given cycle parameters.

    Nontrivial cycles are laid out on consecutive indices starting at 0, in
    the order the lengths are given; the m fixed points occupy the last m
    indices. Raises ParameterError when m + sum(lengths) != n or some length
    is < 2.
    """
    lengths = tuple(lengths)
    if m < 0 or any(L < 2 for L in lengths):
        raise ParameterError(f"invalid cycle parameters m={m} lengths={lengths}")
    if m + sum(lengths) != n:
        raise ParameterError(
            f"cycle parameters do not cover n: m={m} + sum{lengths} != {n}")
    mapping = list(range(n))
    start = 0
    for L in lengths:
        for k in range(L - 1):
            mapping[start + k] = start + k + 1
        mapping[start + L - 1] = start
        start += L
    return Permutation(tuple(mapping))


def cycle_parameter_space(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Every (fixed_points, cycle_lengths) pair realizable on n elements.

    Lengths are non-increasing partitions into parts >= 2; m = n - 1 is
    impossible and absent. Order: m descending, partitions lexicographically
    descending, so the identity class comes first.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    out: list[tuple[int, tuple[int, ...]]] = []

    def parts(remaining: int, max_part: int, acc: list[int]):
        if remaining == 0:
            found.append(tuple(acc))
            return
        for p in range(min(remaining, max_part), 1, -1):
            if remaining - p != 1:
                acc.append(p)
                parts(remaining - p, p, acc)
                acc.pop()

    for m in range(n, -1, -1):
        rem = n - m
        if rem == 1:
            continue
        found: list[tuple[int, ...]] = []
        parts(rem, rem, [])
        for lengths in found:
            out.append((m, lengths))
    return tuple(out)


def from_labelings(sigma: Labeling, sigma_prime: Labeling) -> Permutation:
    """The permutation relating two labelings of the same vertex set.

    p sends label i to label j exactly when the vertex labeled i by sigma is
    labeled j by sigma_prime, i.e. p = sigma_prime o sigma^{-1}.
    """
    return sigma_prime.compose(sigma.inverse())


def fixed_point_fraction(p: Permutation) -> float:
    """Fraction of indices with p(i) = i."""
    return sum(1 for i, j in enumerate(p.mapping) if i == j) / p.n


def to_one_based(p: Permutation) -> list[int]:
    return [j + 1 for j in p.mapping]


def from_one_based(values: Sequence[int]) -> Permutation:
    return Permutation(tuple(v - 1 for v in values))
