"""Information quantities, the permuted-pair typicality bound, and region checks.

All divergences, mutual informations, and rate thresholds are in bits.

The probability that a correlated pair stays jointly typical after the second
sequence is permuted decays with the divergence between the joint law and the
fixed-point mixture (1 - alpha) * Px x Py + alpha * Pxy, where alpha is the
permutation's fixed-point fraction. `permuted_typicality_bound` turns that
statement into a finite-n upper bound with an explicit polynomial type-count
constant, so it can be validated against the exact oracle at desk scale.

The achievability check sweeps fixed-point fractions and their allocations
across communities; the converse check compares n*log2(n) bits of labeling
entropy against the total edge-information budget. Side information about
communities does not change either region, so the same callables serve both
modes (aliases below make that explicit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InfeasibleAllocationError, ParameterError
from .model import CommunityLayout, PairedEdgeModel


def kl_divergence(p, q) -> float:
    """D(p || q) in bits; 0*log 0 = 0; +inf when p charges a q-null cell."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ParameterError(f"dimension mismatch: {p.shape} vs {q.shape}")
    pos = p > 0
    if np.any(q[pos] == 0):
        return math.inf
    return float(np.sum(p[pos] * np.log2(p[pos] / q[pos])))


def mutual_information(joint) -> float:
    """I(X;Y) = D(joint || product of its marginals), in bits."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ParameterError("mutual_information expects a 2-d joint")
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return kl_divergence(joint, np.outer(px, py))


def fixed_point_mixture(joint, alpha: float) -> np.ndarray:
    """(1 - alpha) * Px x Py + alpha * joint; the permuted-slot edge law."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0,1], got {alpha}")
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return (1.0 - alpha) * np.outer(px, py) + alpha * joint


def _min_kl_over_ball(p: np.ndarray, eps: float, q: np.ndarray) -> float:
    """min D(r || q) over distributions r with |r - p|_inf <= eps.

    Exact KKT solution: the minimizer is r = clip(t * q, lo, hi) for the
    scalar t that makes the mass sum to one (the objective is convex and the
    unconstrained stationary point is proportional to q), found by bisection.
    """
    lo = np.maximum(p - eps, 0.0)
    hi = np.minimum(p + eps, 1.0)
    null = q == 0
    if np.any(lo[null] > 0):
        return math.inf  # forced mass on a q-null cell
    act = ~null
    qa, loa, hia = q[act], lo[act], hi[act]
    if float(hia.sum()) < 1.0 - 1e-15:
        return math.inf  # active cells cannot carry full mass
    t_lo, t_hi = 0.0, 1.0
    while float(np.clip(t_hi * qa, loa, hia).sum()) < 1.0 and t_hi < 1e18:
        t_hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (t_lo + t_hi)
        if float(np.clip(mid * qa, loa, hia).sum()) < 1.0:
            t_lo = mid
        else:
            t_hi = mid
    r = np.clip(t_hi * qa, loa, hia)
    pos = r > 0
    return float(np.sum(r[pos] * np.log2(r[pos] / qa[pos])))


@dataclass(frozen=True)
class ExponentReport:
    """Pieces of the typicality-probability upper bound, all in bits."""

    n: int
    alpha: float
    eps: float
    divergence_term: float
    eps_penalty: float
    type_count_log: float
    bound_log2: float


def permuted_typicality_bound(n: int, alpha: float, eps: float, joint) -> ExponentReport:
    """Upper bound on log2 P(permuted pair jointly eps-typical).

    bound_log2 = 4*l*l'*log2(n+1) - (n/4) * (divergence_term - l*l'*eps),
    where divergence_term minimizes D(r || mixture) over all distributions r
    within eps (max-norm) of the joint. The minimization ball is a superset of
    the empirical distributions the typicality event can produce, so
    2^bound_log2 always dominates the exact probability.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if eps <= 0:
        raise ParameterError("eps must be positive")
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ParameterError("joint must be 2-d")
    cells = joint.shape[0] * joint.shape[1]
    mixture = fixed_point_mixture(joint, alpha)
    div = _min_kl_over_ball(joint, eps, mixture)
    type_count_log = 4.0 * cells * math.log2(n + 1)
    eps_penalty = cells * eps
    bound_log2 = type_count_log - (n / 4.0) * (div - eps_penalty)
    return ExponentReport(
        n=n, alpha=alpha, eps=eps,
        divergence_term=div,
        eps_penalty=eps_penalty,
        type_count_log=type_count_log,
        bound_log2=bound_log2,
    )


@dataclass(frozen=True)
class RegionVerdict:
    satisfied: bool
    margin_bits: float
    worst_alpha: float
    worst_allocation: tuple[float, ...]
    n: int
    delta: float


@dataclass(frozen=True)
class AlphaRow:
    """One grid point of the achievability sweep (rhs already maximized)."""

    alpha: float
    lhs_bits: float
    rhs_bits: float
    margin_bits: float
    allocation: tuple[float, ...]


@dataclass(frozen=True)
class ConverseVerdict:
    impossible: bool
    lhs_bits: float
    rhs_bits: float
    n: int


def _alpha_grid(limit: float, step: float) -> np.ndarray:
    g = np.arange(0.0, limit + step * 0.5, step)
    if g.size == 0 or g[-1] < limit - 1e-12:
        g = np.append(g, limit)
    return np.minimum(g, limit)


def _allocations(alpha: float, sizes: Sequence[int], n: int, step: float) -> np.ndarray:
    """Grid points of {alpha_i >= 0, alpha_i <= n_i/n, sum = alpha}, shape (G, c).

    Interval endpoints are always included so the set is only empty when the
    constraints themselves are (then InfeasibleAllocationError)."""
    caps = [s / n for s in sizes]
    if alpha > sum(caps) + 1e-12 or alpha < -1e-12:
        raise InfeasibleAllocationError(
            f"no allocation sums to alpha={alpha} under caps {caps}")
    c = len(caps)
    rows: list[list[float]] = []

    def rec(i: int, remaining: float, prefix: list[float]):
        if i == c - 1:
            if -1e-12 <= remaining <= caps[i] + 1e-12:
                rows.append(prefix + [min(max(remaining, 0.0), caps[i])])
            return
        tail_cap = sum(caps[i + 1:])
        lo = max(0.0, remaining - tail_cap)
        hi = min(caps[i], remaining)
        if lo > hi + 1e-12:
            return
        vals = np.arange(lo, hi + step * 0.5, step)
        if vals.size == 0 or vals[-1] < hi - 1e-12:
            vals = np.append(vals, hi)
        for v in np.minimum(vals, hi):
            rec(i + 1, remaining - v, prefix + [float(v)])

    rec(0, alpha, [])
    if not rows:
        raise InfeasibleAllocationError(
            f"allocation grid empty at alpha={alpha} (step {step})")
    return np.asarray(rows)


def _kl_to_mixtures(joint: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """D(joint || (1-b) PxPy + b joint) for a vector of mixture weights b,
    each value equal to the 1-d `np.sum` over that mixture's positive cells."""
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    prod = np.outer(px, py)
    mix = (1.0 - betas)[:, None, None] * prod[None] + betas[:, None, None] * joint[None]
    pos = joint > 0
    pj = joint[pos]
    mk = mix[:, pos]
    with np.errstate(divide="ignore"):
        terms = pj * np.log2(pj / mk)
    # terms is not C-contiguous, and a strided axis=1 sum adds in another
    # order; contiguous rows are each summed as the 1-d np.sum sums them
    return np.where((mk == 0).any(axis=1), math.inf, np.ascontiguousarray(terms).sum(axis=1))


def achievability_profile(model: PairedEdgeModel,
                          layout: CommunityLayout,
                          n: int,
                          delta: float,
                          grid_step: Optional[float] = None) -> tuple[AlphaRow, ...]:
    """Sweep the achievability condition over fixed-point fractions.

    For every alpha in [0, 1-delta] the rate requirement
    4*(1-alpha)*log2(n)/n is compared against the best allocation's weighted
    divergence sum. Intra terms use the fixed-pair fraction
    n*a_i*(n*a_i - 1)/(n_i*(n_i - 1)), clamped to [0, 1] since grid
    allocations need not make n*a_i integral; single-vertex communities carry
    zero weight and are skipped.
    """
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    if n < 2:
        raise ParameterError("n must be >= 2")
    sizes = layout.scaled_sizes(n)
    c = len(sizes)
    step = grid_step if grid_step is not None else 1.0 / n
    if not 0 < step < math.inf:
        raise ParameterError(f"grid step must be positive and finite, got {step}")
    # below the float64 spacing at the largest alpha the grid's points are not
    # all distinct, and far below it numpy cannot even size the grid
    spacing = math.ulp(1.0 - delta)
    if step < spacing:
        raise ParameterError(f"grid step {step!r} is below the float64 spacing {spacing!r} "
                             f"of the largest alpha {1.0 - delta!r}")
    log2n = math.log2(n)
    rows: list[AlphaRow] = []
    for alpha in map(float, _alpha_grid(1.0 - delta, step)):
        allocs = _allocations(alpha, sizes, n, step)
        rhs = np.zeros(len(allocs))
        for i in range(c):
            for j in range(i, c):
                if i == j:
                    ni = sizes[i]
                    if ni < 2:
                        continue
                    ai = allocs[:, i]
                    betas = np.clip(n * ai * (n * ai - 1.0) / (ni * (ni - 1.0)), 0.0, 1.0)
                    weight = ni * (ni - 1.0) / (2.0 * n * n)
                else:
                    betas = np.clip(
                        n * n * allocs[:, i] * allocs[:, j] / (sizes[i] * sizes[j]), 0.0, 1.0)
                    weight = sizes[i] * sizes[j] / (n * n)
                rhs += weight * _kl_to_mixtures(model.joint[i, j], betas)
        best = int(np.argmax(rhs))
        lhs = 4.0 * (1.0 - alpha) * log2n / n
        rows.append(AlphaRow(
            alpha=alpha,
            lhs_bits=lhs,
            rhs_bits=float(rhs[best]),
            margin_bits=float(rhs[best]) - lhs,
            allocation=tuple(float(v) for v in allocs[best]),
        ))
    return tuple(rows)


def achievability_check(model: PairedEdgeModel,
                        layout: CommunityLayout,
                        n: int,
                        delta: float,
                        grid_step: Optional[float] = None) -> RegionVerdict:
    """Verdict form of achievability_profile: satisfied iff no grid point fails."""
    rows = achievability_profile(model, layout, n, delta, grid_step)
    worst = min(rows, key=lambda r: r.margin_bits)
    return RegionVerdict(
        satisfied=worst.margin_bits >= 0.0,
        margin_bits=worst.margin_bits,
        worst_alpha=worst.alpha,
        worst_allocation=worst.allocation,
        n=n,
        delta=delta,
    )


def er_achievability(joint, n: int, delta: float) -> RegionVerdict:
    """Single-community specialization with the printed constant 8.

    Requires 8*(1-alpha)*log2(n)/n <= D(P || (1-alpha) PxPy + alpha P) for
    every alpha in [0, 1-delta]; the fixed-point fraction itself weights the
    mixture. The alpha grid steps by 1/n and includes the right endpoint.
    """
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"delta must lie in (0, 1], got {delta}")
    if n < 2:
        raise ParameterError("n must be >= 2")
    joint = np.asarray(joint, dtype=float)
    alphas = _alpha_grid(1.0 - delta, 1.0 / n)
    divs = _kl_to_mixtures(joint, alphas)
    lhs = 8.0 * (1.0 - alphas) * math.log2(n) / n
    margins = divs - lhs
    k = int(np.argmin(margins))
    return RegionVerdict(
        satisfied=bool(margins[k] >= 0.0),
        margin_bits=float(margins[k]),
        worst_alpha=float(alphas[k]),
        worst_allocation=(float(alphas[k]),),
        n=n,
        delta=delta,
    )


def converse_check(model: PairedEdgeModel, layout: CommunityLayout, n: int) -> ConverseVerdict:
    """Matching is impossible when n*log2(n) exceeds the edge-information budget.

    rhs = sum_{i<j} n_i n_j I(X;X'|i,j) + sum_i C(n_i,2) I(X;X'|i,i), bits.
    """
    if n < 2:
        raise ParameterError("n must be >= 2")
    sizes = layout.scaled_sizes(n)
    c = len(sizes)
    rhs = 0.0
    for i in range(c):
        for j in range(i, c):
            mi = mutual_information(model.joint[i, j])
            if i == j:
                rhs += sizes[i] * (sizes[i] - 1) / 2.0 * mi
            else:
                rhs += sizes[i] * sizes[j] * mi
    lhs = n * math.log2(n)
    return ConverseVerdict(impossible=lhs > rhs, lhs_bits=lhs, rhs_bits=rhs, n=n)


def er_converse(joint, n: int) -> ConverseVerdict:
    """Single-community closed form: impossible when 2*log2(n)/n > I(X;X')."""
    if n < 2:
        raise ParameterError("n must be >= 2")
    lhs = 2.0 * math.log2(n) / n
    rhs = mutual_information(joint)
    return ConverseVerdict(impossible=lhs > rhs, lhs_bits=lhs, rhs_bits=rhs, n=n)


# Community side information does not move the region boundaries, so both
# modes share one code path by construction.
achievability_check_csi = achievability_check
achievability_check_wsi = achievability_check
converse_check_csi = converse_check
converse_check_wsi = converse_check
