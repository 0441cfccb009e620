"""Exact reference computations by deliberate brute force.

Everything here exists to check the fast paths, so it shares no logic with
them: typicality is re-decided from integer count bounds computed in exact
rational arithmetic, probabilities are summed over the full outcome space,
and labelings are enumerated rather than constructed.

`exact_typicality_probability` sums Prod_k P(x_k, y_k) over every outcome
pair of length n, counting the event that the (optionally permuted) pair is
jointly eps-typical. When every model entry is rational (Fraction or int) the
result is an exact Fraction; float models fall back to compensated summation.
It visits all s^n outcomes (s = |X| * |Y|) as base-s digit strings: chunks of
leading digits, each over a cached read-only table of every trailing digit
string (at most one chunk of outcomes), already split into x and y digits and
labeled with its type. A call gathers the permuted columns, counts symbols,
keeps the outcomes inside the exact-rational count windows and histograms
their types. None of this is shared with `matcher` or `typicality`: the
tables only replace digit arithmetic, so the oracle still decides every
outcome on its own and stays an independent check of the fast paths.

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
from functools import lru_cache
from itertools import permutations
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import ParameterError, SizeGuardError
from .model import CommunityLayout
from .permutation import Labeling, Permutation
from .typicality import blocks_jointly_typical, paired_blocks

if TYPE_CHECKING:
    from .graphgen import MatchingInstance

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


@lru_cache(maxsize=8)
def _digit_table(l1: int, l2: int, t: int) -> tuple[np.ndarray, ...]:
    """Every value of t base-(l1*l2) digits, in order, as read-only tables:
    x and y digit rows (t, s^t) with z = x * l2 + y, each column's type index
    (s^t,), and the types (T, s) as symbol counts."""
    s = l1 * l2
    r = np.arange(s ** t)
    z = np.empty((t, len(r)), dtype=np.min_scalar_type(s))
    for i in range(t - 1, -1, -1):
        r, z[i] = np.divmod(r, s)
    counts = np.stack([np.count_nonzero(z == a, axis=0) for a in range(s)], axis=1)
    # Rank the count vectors one symbol at a time, so no key outgrows int64.
    ttype = np.zeros(len(r), dtype=np.intp)
    for a in range(s):
        _, first, ttype = np.unique(ttype * (t + 1) + counts[:, a],
                                    return_index=True, return_inverse=True)
    tables = (z // l2, z % l2, ttype, counts[first])
    for a in tables:
        a.setflags(write=False)
    return tables


def _stack_digits(lead: np.ndarray, trail: np.ndarray) -> np.ndarray:
    """Digit rows (L + t, g * R) of g blocks of outcomes: block j has the
    leading digits lead[:, j] (lead is (L, g)) above every column of trail
    (t, R)."""
    (nl, g), (nt, rows) = lead.shape, trail.shape
    out = np.empty((nl + nt, g, rows), dtype=trail.dtype)
    out[:nl] = lead[:, :, None]
    out[nl:] = trail[:, None, :]
    return out.reshape(nl + nt, g * rows)


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

    px = np.asarray(pi_first.mapping if pi_first is not None else range(n), dtype=np.intp)
    py = np.asarray(pi.mapping, dtype=np.intp)
    # Windows every count in 0..n meets decide nothing and are not checked.
    binding = [(a, lo[a], hi[a]) for a in range(s) if lo[a] > 0 or hi[a] < n]

    # Outcome r has base-s digits z_0 (leading) .. z_{n-1}, z = x * l2 + y.
    # A chunk is `per` consecutive values of the leading digits, each with
    # every value of the t trailing digits from the shared table.
    t = n
    while s ** t > _CHUNK:
        t -= 1
    lead = n - t
    tx, ty, ttype, types = _digit_table(l1, l2, t)
    per = max(1, _CHUNK // s ** t)
    place = s ** np.arange(lead - 1, -1, -1, dtype=np.int64)

    type_hits: dict[tuple[int, ...], int] = {}
    typical_outcomes = 0
    for p0 in range(0, s ** lead, per):
        zl = (np.arange(p0, min(p0 + per, s ** lead))[None, :] // place[:, None]) % s
        g = zl.shape[1]
        xs = _stack_digits((zl // l2).astype(tx.dtype), tx)
        ys = _stack_digits((zl % l2).astype(tx.dtype), ty)
        w = xs[px] * l2 + ys[py]
        mask = np.ones(w.shape[1], dtype=bool)
        for a, la, ha in binding:
            cw = np.count_nonzero(w == a, axis=0)
            mask &= (cw >= la) & (cw <= ha)
        if not mask.any():
            continue
        typical_outcomes += int(np.count_nonzero(mask))
        # Key (leading block, trailing type) of each typical outcome.
        key = (np.arange(g)[:, None] * len(types) + ttype).reshape(-1)
        hist = np.bincount(key[mask], minlength=g * len(types))
        hit = np.flatnonzero(hist)
        lead_counts = np.stack([np.count_nonzero(zl == a, axis=0) for a in range(s)], axis=1)
        full = lead_counts[hit // len(types)] + types[hit % len(types)]
        for tc, c in zip(map(tuple, full.tolist()), hist[hit].tolist()):
            type_hits[tc] = type_hits.get(tc, 0) + c

    # Each type's weight is prod_a p_a^e_a, over integer numerators when the
    # joint is rational and over floats otherwise.
    if rational:
        scale = math.lcm(*(p.denominator for p in frac))
        base = [int(p * scale) for p in frac]
    else:
        base = [float(p) for p in flat]
    terms = [math.prod(a ** e for a, e in zip(base, tc) if e) * c for tc, c in type_hits.items()]
    value = Fraction(sum(terms), scale ** n) if rational else math.fsum(terms)
    return ExactProbability(
        value=value,
        exact=rational,
        outcomes=total_outcomes,
        typical_outcomes=typical_outcomes,
        error_bound=0.0 if rational else len(terms) * abs(value) * 2.0 ** -50,
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
