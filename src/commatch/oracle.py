"""Exact reference computations by deliberate brute force.

Everything here exists to check the fast paths, so it shares no logic with
them: typicality is re-decided from integer count bounds computed in exact
rational arithmetic, probabilities are summed over the full outcome space,
and labelings are enumerated rather than constructed.

`exact_typicality_probability` sums Prod_k P(x_k, y_k) over every outcome
pair of length n, counting the event that the (optionally permuted) pair is
jointly eps-typical. When every model entry is rational (Fraction or int) the
result is an exact Fraction; float models fall back to compensated summation.

`unrestricted_csi_labelings` scans all n! labelings of an instance and, as
the one exception to exact windows, decides each with the scalar float test
`typicality.blocks_jointly_typical`: the matcher's integer count windows
reproduce that test bit for bit, while exact windows disagree with both on
boundary counts, so only the float test checks the matcher's sets exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ParameterError, SizeGuardError
from .graphgen import MatchingInstance
from .model import CommunityLayout
from .permutation import Labeling, Permutation
from .typicality import blocks_jointly_typical, paired_blocks

DEFAULT_OUTCOME_CAP = 100_000_000
_CHUNK = 1 << 18


def _flatten_joint(joint) -> tuple[list, int, int]:
    if isinstance(joint, np.ndarray):
        rows = [list(r) for r in joint.tolist()]
    else:
        rows = [list(r) for r in joint]
    l1 = len(rows)
    l2 = len(rows[0])
    if any(len(r) != l2 for r in rows):
        raise ParameterError("ragged joint distribution")
    flat = [rows[a][b] for a in range(l1) for b in range(l2)]
    return flat, l1, l2


@dataclass(frozen=True)
class ExactProbability:
    """Result of an exhaustive probability computation."""

    value: Union[Fraction, float]
    exact: bool
    outcomes: int
    typical_outcomes: int
    error_bound: float

    @property
    def as_float(self) -> float:
        return float(self.value)


def _count_bounds(flat_p: Sequence[Fraction], n: int, eps: Fraction) -> tuple[list[int], list[int]]:
    """Inclusive integer count windows for |k/n - p| <= eps, cell by cell."""
    lo, hi = [], []
    for p in flat_p:
        lo.append(max(0, math.ceil(n * (p - eps))))
        hi.append(min(n, math.floor(n * (p + eps))))
    return lo, hi


def exact_typicality_probability(joint,
                                 n: int,
                                 pi: Permutation,
                                 eps,
                                 pi_first: Optional[Permutation] = None,
                                 cap: int = DEFAULT_OUTCOME_CAP) -> ExactProbability:
    """P( (pi_first(X^n), pi(Y^n)) jointly eps-typical ), X,Y iid from joint.

    The pair (X_k, Y_k) at each index is one draw from `joint`; pi permutes
    the second sequence (z_i = y_{pi(i)}) and pi_first, when given, the first.
    Enumerates all |X|^n * |Y|^n outcome pairs, so n must stay desk-scale.
    """
    flat, l1, l2 = _flatten_joint(joint)
    s = l1 * l2
    total_outcomes = s ** n
    if total_outcomes > cap:
        raise SizeGuardError(
            f"outcome space {l1}^{n} * {l2}^{n} = {total_outcomes} exceeds cap {cap}")
    if pi.n != n or (pi_first is not None and pi_first.n != n):
        raise ParameterError("permutation size != n")

    rational = all(isinstance(p, (Fraction, int)) for p in flat)
    frac = [Fraction(p) for p in flat]
    if any(p < 0 for p in frac):
        raise ParameterError("negative probability in joint")
    if rational and sum(frac) != 1:
        raise ParameterError(f"rational joint sums to {sum(frac)}, not 1")
    eps_f = eps if isinstance(eps, Fraction) else Fraction(eps)
    lo, hi = _count_bounds(frac, n, eps_f)

    px = np.asarray(pi_first.mapping if pi_first is not None else range(n), dtype=np.int64)
    py = np.asarray(pi.mapping, dtype=np.int64)
    radix = (n + 1) ** np.arange(s, dtype=np.int64)
    lo_a = np.asarray(lo, dtype=np.int64)
    hi_a = np.asarray(hi, dtype=np.int64)

    type_hits: dict[int, int] = {}
    typical_outcomes = 0
    place = s ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total_outcomes, _CHUNK):
        stop = min(start + _CHUNK, total_outcomes)
        r = np.arange(start, stop, dtype=np.int64)
        z = (r[:, None] // place[None, :]) % s
        x, y = z // l2, z % l2
        w = x[:, px] * l2 + y[:, py]
        cw = np.stack([(w == sym).sum(axis=1) for sym in range(s)], axis=1)
        mask = np.all((cw >= lo_a) & (cw <= hi_a), axis=1)
        if not mask.any():
            continue
        typical_outcomes += int(mask.sum())
        cz = np.stack([(z[mask] == sym).sum(axis=1) for sym in range(s)], axis=1)
        keys, counts = np.unique(cz @ radix, return_counts=True)
        for k, c in zip(keys.tolist(), counts.tolist()):
            type_hits[k] = type_hits.get(k, 0) + c

    def decode(key: int) -> list[int]:
        t = []
        for _ in range(s):
            t.append(key % (n + 1))
            key //= n + 1
        return t

    if rational:
        denom = 1
        for p in frac:
            denom = denom * p.denominator // math.gcd(denom, p.denominator)
        nums = [int(p * denom) for p in frac]
        total = 0
        for key, c in type_hits.items():
            t = decode(key)
            w = 1
            for a, e in zip(nums, t):
                if e:
                    w *= a ** e
            total += w * c
        return ExactProbability(
            value=Fraction(total, denom ** n),
            exact=True,
            outcomes=total_outcomes,
            typical_outcomes=typical_outcomes,
            error_bound=0.0,
        )

    fl = [float(p) for p in flat]
    terms = []
    for key, c in type_hits.items():
        t = decode(key)
        w = 1.0
        for a, e in zip(fl, t):
            if e:
                w *= a ** e
        terms.append(w * c)
    value = math.fsum(terms)
    err = len(terms) * abs(value) * 2.0 ** -50
    return ExactProbability(
        value=value,
        exact=False,
        outcomes=total_outcomes,
        typical_outcomes=typical_outcomes,
        error_bound=err,
    )


def derangement_count(k: int) -> int:
    """Number of permutations of k elements with no fixed point."""
    if k < 0:
        raise ParameterError("negative k")
    if k == 0:
        return 1
    if k == 1:
        return 0
    a, b = 1, 0  # !0, !1
    for i in range(2, k + 1):
        a, b = b, (i - 1) * (a + b)
    return b


def enumerate_labelings(layout: CommunityLayout,
                        community_preserving: bool = True,
                        cap: int = 10_000_000) -> Iterator[Labeling]:
    """Yield candidate labelings in a fixed duplicate-free order.

    community_preserving restricts to labelings where each vertex gets a label
    of its own community (labels inherit communities positionally), giving
    prod_i n_i! candidates; otherwise all n! labelings are yielded.
    """
    n = layout.n
    if not community_preserving:
        total = math.factorial(n)
        if total > cap:
            raise SizeGuardError(f"{total} labelings exceed cap {cap}")
        for mapping in permutations(range(n)):
            yield Labeling(tuple(mapping))
        return
    groups = [layout.vertices_of(i) for i in range(layout.c)]
    total = 1
    for g in groups:
        total *= math.factorial(len(g))
    if total > cap:
        raise SizeGuardError(f"{total} labelings exceed cap {cap}")

    def rec(ci: int, mapping: list[int]) -> Iterator[Labeling]:
        if ci == len(groups):
            yield Labeling(tuple(mapping))
            return
        verts = groups[ci]
        for labels in permutations(verts):
            for v, a in zip(verts, labels):
                mapping[v] = a
            yield from rec(ci + 1, mapping)

    yield from rec(0, [0] * n)


def unrestricted_csi_labelings(inst: MatchingInstance, eps: float) -> list[Labeling]:
    """Every one of the n! labelings whose paired blocks are all jointly
    eps-typical. Blocks pair each side's communities positionally, so the
    community-preserving members are exactly the csi ambiguity set."""
    if inst.comm1_of_label is None or inst.comm2_of_vertex is None:
        raise ParameterError("csi matching needs community maps on both sides")
    members = []
    for sigma in enumerate_labelings(CommunityLayout.contiguous(inst.sizes),
                                     community_preserving=False):
        blocks = paired_blocks(inst.g1_values, inst.comm1_of_label, inst.g2_values,
                               sigma.inverse().mapping, inst.comm2_of_vertex, inst.c)
        if blocks_jointly_typical(blocks, inst.model.joint, eps):
            members.append(sigma)
    return members
