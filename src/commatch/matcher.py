"""Typicality matching: ambiguity sets with and without community knowledge.

The ambiguity set collects every candidate labeling of the anonymized graph
whose per-community-pair blocks are all jointly eps-typical against the
model; the matcher then outputs a uniformly chosen member. With community
knowledge ("csi") the candidate space is restricted to community-preserving
labelings (prod_i n_i! of them); without it ("wsi") every permutation is a
candidate and the test sweeps hypothesized community assignments.

Candidate spaces are enumerated, never searched heuristically, so a size
guard refuses jobs above a configurable cap. The csi path avoids per-candidate
Python work by factoring typicality over communities: intra blocks depend on
one community's assignment, inter blocks on a pair, so per-community
permutations are enumerated once and combined through boolean masks. Inter
block counts for all permutation pairs come from matrix products with one-hot
permutation tables (one product pair per cell with both symbols >= 1, the
other cells from marginal totals). Every count is checked against the integer
window `typicality.count_windows` derives from the float expression of
`is_jointly_typical`, so the decisions agree with it bit for bit.

Canonical member order everywhere is lexicographic by the inverse mapping
(label -> anonymized vertex), which both enumeration orders produce directly;
seeded selection indexes into that order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Optional

import numpy as np

from .errors import EmptyAmbiguitySetError, ParameterError, SizeGuardError
from .graphgen import MatchingInstance, _philox
from .permutation import Labeling, Permutation
from .typicality import blocks_jointly_typical, count_windows, default_epsilon, paired_blocks

DEFAULT_CANDIDATE_CAP = 10_000_000
_SELECT_TAG = 0x9E1B


@dataclass(frozen=True)
class AmbiguitySet:
    """Labelings that survived the typicality test, in canonical order.

    candidate_space counts the hypotheses examined: prod_i n_i! (csi
    restricted), n! (csi unrestricted), or n! times the number of swept
    assignments (wsi).
    """

    labelings: tuple[Labeling, ...]
    eps: float
    mode: str
    candidate_space: int

    def __len__(self) -> int:
        return len(self.labelings)

    def __iter__(self):
        return iter(self.labelings)

    def __contains__(self, lab: Labeling) -> bool:
        return any(m.mapping == lab.mapping for m in self.labelings)


def _sorted_members(members: Iterable[Labeling]) -> list[Labeling]:
    return sorted(members, key=lambda p: p.inverse().mapping)


# -- csi fast path ------------------------------------------------------------
#
# Communities are matched pointwise under a community-preserving candidate, so
# the candidate factors into per-community position permutations rho_i mapping
# the i-th community's sorted labels onto its sorted anonymized vertices. The
# typicality of the intra block i depends only on rho_i; of the inter block
# (i, j) only on (rho_i, rho_j).

@dataclass(frozen=True)
class _CsiGrid:
    labels_of: list[np.ndarray]
    verts_of: list[np.ndarray]
    perms: list[np.ndarray]  # per community, (R_i, k_i), lex order
    mask: np.ndarray         # bool, shape (R_1, ..., R_c), row-major == canonical order
    candidate_space: int


@lru_cache(maxsize=None)
def _perm_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lex-order permutations of range(k), (R, k), and their one-hot table.

    The one-hot table E, (R, k*k) float32, has E[r, q*k + rho_r(q)] = 1.
    Both are shared between callers and threads, hence read-only.
    """
    perms = np.asarray(list(permutations(range(k))), dtype=np.intp)
    onehot = np.zeros((len(perms), k * k), dtype=np.float32)
    onehot[np.arange(len(perms))[:, None], np.arange(k) * k + perms] = 1.0
    perms.setflags(write=False)
    onehot.setflags(write=False)
    return perms, onehot


def _intra_mask(g1: np.ndarray, g2: np.ndarray, labels: np.ndarray, verts: np.ndarray,
                perms: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    k = len(labels)
    if k < 2:
        return np.ones(len(perms), dtype=bool)
    s1, s2 = np.triu_indices(k, 1)
    xv = g1[labels[s1], labels[s2]]
    b = g2[np.ix_(verts, verts)]
    gathered = b[perms[:, s1], perms[:, s2]]  # (R, S)
    lo, hi = count_windows(p, eps, len(s1))
    l = p.shape[0]
    ok = np.ones(len(perms), dtype=bool)
    for x in range(l):
        on_x = xv == x
        for y in range(l):
            cnt = ((gathered == y) & on_x[None, :]).sum(axis=1)
            ok &= (cnt >= lo[x, y]) & (cnt <= hi[x, y])
    return ok


# Float32 elements of one (R_i, chunk) count array in _inter_mask.
_INTER_CHUNK = 1 << 20


def _inter_mask(g1: np.ndarray, g2: np.ndarray,
                labels_i: np.ndarray, labels_j: np.ndarray,
                verts_i: np.ndarray, verts_j: np.ndarray,
                p: np.ndarray, eps: float) -> np.ndarray:
    """Typicality mask of one inter block over all (rho_i, rho_j) pairs.

    A cell with both symbols >= 1 counts
    sum_{q1,q2} 1{A[q1,q2]=x} 1{B[rho_i(q1), rho_j(q2)]=y}
    = (E_i @ kron(1{A=x}, 1{B=y}) @ E_j^T)[rho_i, rho_j] with the one-hot
    tables E of `_perm_tables`; every product and partial sum is a small
    integer, so float32 is exact. The remaining cells follow from the
    permutation-invariant marginal totals. rho_j is processed in chunks so
    no more than a few (R_i, chunk) count arrays are alive at once.
    """
    a = g1[np.ix_(labels_i, labels_j)]
    b = g2[np.ix_(verts_i, verts_j)]
    k_i, k_j = a.shape
    slots = k_i * k_j
    l = p.shape[0]
    _, e_i = _perm_tables(k_i)
    _, e_j = _perm_tables(k_j)
    ri, rj = len(e_i), len(e_j)
    lo, hi = count_windows(p, eps, slots)
    rowsum = [int((a == x).sum()) for x in range(l)]
    colsum = [int((b == y).sum()) for y in range(l)]
    # Every cell count is a constant plus or minus a sum of hot counts, so each
    # cell window is a window on that sum, and windows on the same sum
    # intersect (at l = 2 all four cells constrain the single hot count).
    hot_cells = [(x, y) for x in range(1, l) for y in range(1, l)]
    base = slots - sum(rowsum[1:]) - sum(colsum[1:])
    windows: dict[tuple, tuple[int, int]] = {}
    for x in range(l):
        for y in range(l):
            cl, ch = int(lo[x, y]), int(hi[x, y])
            if x and y:
                key, w = ((x, y),), (cl, ch)
            elif x:  # rowsum[x] - sum of row x's hot cells
                key, w = tuple((x, v) for v in range(1, l)), (rowsum[x] - ch, rowsum[x] - cl)
            elif y:  # colsum[y] - sum of column y's hot cells
                key, w = tuple((u, y) for u in range(1, l)), (colsum[y] - ch, colsum[y] - cl)
            else:  # base + sum of all hot cells
                key, w = tuple(hot_cells), (cl - base, ch - base)
            old = windows.get(key, w)
            windows[key] = (max(old[0], w[0]), min(old[1], w[1]))
    left = {xy: e_i @ np.kron(a == xy[0], b == xy[1]).astype(np.float32)
            for xy in hot_cells}  # (R_i, k_j^2) each
    ok = np.ones((ri, rj), dtype=bool)
    step = max(1, _INTER_CHUNK // ri)
    for c0 in range(0, rj, step):
        ej_t = e_j[c0:c0 + step].T
        hot = {xy: m @ ej_t for xy, m in left.items()}
        okc = ok[:, c0:c0 + step]
        for cells, (wlo, whi) in windows.items():
            s = hot[cells[0]]
            for xy in cells[1:]:
                s = s + hot[xy]
            okc &= s >= wlo
            okc &= s <= whi
    return ok


def _csi_grid(inst: MatchingInstance, eps: float, cap: int) -> _CsiGrid:
    if inst.comm1_of_label is None or inst.comm2_of_vertex is None:
        raise ParameterError("csi matching needs community maps on both sides")
    c, joint = inst.c, inst.model.joint
    comm1 = np.asarray(inst.comm1_of_label)
    comm2 = np.asarray(inst.comm2_of_vertex)
    labels_of = [np.flatnonzero(comm1 == i) for i in range(c)]
    verts_of = [np.flatnonzero(comm2 == i) for i in range(c)]
    for i in range(c):
        if len(labels_of[i]) != len(verts_of[i]):
            raise ParameterError(f"community {i + 1} sizes differ between sides")
    total = 1
    for g in labels_of:
        total *= math.factorial(len(g))
    if total > cap:
        raise SizeGuardError(f"{total} candidate labelings exceed cap {cap}")
    perms = [_perm_tables(len(g))[0] for g in labels_of]
    shape = tuple(len(p) for p in perms)
    mask = np.ones(shape, dtype=bool)
    g1, g2 = inst.g1_values, inst.g2_values
    for i in range(c):
        mi = _intra_mask(g1, g2, labels_of[i], verts_of[i], perms[i], joint[i, i], eps)
        mask &= mi.reshape(tuple(shape[i] if ax == i else 1 for ax in range(c)))
    for i in range(c):
        for j in range(i + 1, c):
            mij = _inter_mask(g1, g2, labels_of[i], labels_of[j], verts_of[i],
                              verts_of[j], joint[i, j], eps)
            mask &= mij.reshape(
                tuple(shape[ax] if ax in (i, j) else 1 for ax in range(c)))
    return _CsiGrid(labels_of=labels_of, verts_of=verts_of, perms=perms,
                    mask=mask, candidate_space=total)


def _labeling_at(grid: _CsiGrid, idx: tuple[int, ...]) -> Labeling:
    n = sum(len(g) for g in grid.labels_of)
    ltv = np.empty(n, dtype=np.int64)
    for i, r in enumerate(idx):
        ltv[grid.labels_of[i]] = grid.verts_of[i][grid.perms[i][r]]
    return Permutation(tuple(int(v) for v in ltv)).inverse()


def _truth_index(grid: _CsiGrid, truth: Labeling) -> Optional[tuple[int, ...]]:
    """Grid coordinates of the true labeling, None when not community-preserving."""
    tinv = np.asarray(truth.inverse().mapping)
    idx = []
    for labels, verts in zip(grid.labels_of, grid.verts_of):
        vs = tinv[labels]
        if not np.array_equal(np.sort(vs), verts):
            return None
        rho = np.searchsorted(verts, vs)  # vertex positions within the community
        rank = 0  # lex rank of rho from its Lehmer code, in mixed radix
        for q in range(len(rho)):
            rank = rank * (len(rho) - q) + int((rho[q + 1:] < rho[q]).sum())
        idx.append(rank)
    return tuple(idx)


# -- public constructors ------------------------------------------------------

def ambiguity_set_csi(inst: MatchingInstance,
                      eps: Optional[float] = None,
                      restrict: bool = True,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> AmbiguitySet:
    """All typical candidates given community maps on both sides.

    restrict=True (default) enumerates only community-preserving labelings;
    restrict=False scans all n! labelings with the same per-block test, which
    exists to measure the gap at small n. Non-preserving candidates pair each
    side's blocks positionally, so the restricted set is always a subset.
    """
    eps = default_epsilon(inst.n) if eps is None else eps
    if restrict:
        grid = _csi_grid(inst, eps, cap)
        members = [_labeling_at(grid, tuple(idx)) for idx in np.argwhere(grid.mask)]
        return AmbiguitySet(tuple(_sorted_members(members)), eps, "csi",
                            grid.candidate_space)
    if inst.comm1_of_label is None or inst.comm2_of_vertex is None:
        raise ParameterError("csi matching needs community maps on both sides")
    n = inst.n
    total = math.factorial(n)
    if total > cap:
        raise SizeGuardError(f"{total} candidate labelings exceed cap {cap}")
    joint = inst.model.joint
    members = []
    for ltv in permutations(range(n)):  # lex in the inverse mapping == canonical
        blocks = paired_blocks(inst.g1_values, inst.comm1_of_label,
                               inst.g2_values, ltv, inst.comm2_of_vertex, inst.c)
        if blocks_jointly_typical(blocks, joint, eps):
            members.append(Permutation(ltv).inverse())
    return AmbiguitySet(tuple(members), eps, "csi", total)


def _assignments_with_sizes(n: int, sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    cur: list[int] = []

    def rec(pos: int, remaining: list[int]):
        if pos == n:
            out.append(tuple(cur))
            return
        for i in range(len(sizes)):
            if remaining[i]:
                remaining[i] -= 1
                cur.append(i)
                rec(pos + 1, remaining)
                cur.pop()
                remaining[i] += 1

    rec(0, list(sizes))
    return out


def ambiguity_set_wsi(inst: MatchingInstance,
                      eps: Optional[float] = None,
                      full_sweep: bool = False,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> AmbiguitySet:
    """Union of per-assignment ambiguity sets when communities are unknown.

    A candidate enters when some hypothesized community assignment of the
    labels (default: every assignment with the instance's declared sizes)
    makes all blocks jointly typical; the anonymized side's assignment is the
    candidate's image of the hypothesis, which is the only pairing with any
    community-preserving candidates, so sweeping assignment pairs reduces to
    sweeping one side. full_sweep drops the size constraint and tries all c^n
    assignments (guarded to n <= 8).
    """
    eps = default_epsilon(inst.n) if eps is None else eps
    n, c = inst.n, inst.c
    joint = inst.model.joint
    if full_sweep:
        if n > 8:
            raise SizeGuardError(f"full assignment sweep is limited to n <= 8, got n={n}")
        assignments = [tuple(m) for m in product(range(c), repeat=n)]
    else:
        assignments = _assignments_with_sizes(n, inst.sizes)
    total = math.factorial(n) * len(assignments)
    if total > cap:
        raise SizeGuardError(
            f"{math.factorial(n)} candidates x {len(assignments)} assignments "
            f"exceed cap {cap}")
    members = []
    for ltv in permutations(range(n)):
        sigma = Permutation(ltv).inverse()
        for m1 in assignments:
            comm2 = tuple(m1[sigma.mapping[v]] for v in range(n))
            blocks = paired_blocks(inst.g1_values, m1, inst.g2_values, ltv, comm2, c)
            if blocks_jointly_typical(blocks, joint, eps):
                members.append(sigma)
                break
    return AmbiguitySet(tuple(members), eps, "wsi", total)


def select_labeling(s: AmbiguitySet, seed: int) -> Labeling:
    """Uniform seeded pick; deterministic given the set's contents and seed."""
    if not s.labelings:
        raise EmptyAmbiguitySetError(
            f"ambiguity set empty (mode {s.mode}, eps {s.eps})")
    members = _sorted_members(s.labelings)
    k = int(_philox(seed, _SELECT_TAG).integers(len(members)))
    return members[k]


# -- end to end ---------------------------------------------------------------

@dataclass(frozen=True)
class MatchDiagnostics:
    mode: str
    eps: float
    ambiguity_size: int
    candidate_space: int
    truth_included: bool
    wall_time_ms: float


@dataclass(frozen=True)
class MatchResult:
    labeling: Labeling
    accuracy: float
    diagnostics: MatchDiagnostics


def run_matching(inst: MatchingInstance,
                 eps: Optional[float] = None,
                 seed: int = 0,
                 cap: int = DEFAULT_CANDIDATE_CAP) -> MatchResult:
    """Build the mode's ambiguity set, pick a member, score against the truth.

    The csi path selects directly from the boolean candidate grid without
    materializing members, which matches select_labeling's canonical order
    (row-major grid order is lexicographic in the inverse mapping).
    truth_included is evaluation-side information taken from the sealed truth
    after the choice is made.
    """
    t0 = time.perf_counter()
    eps = default_epsilon(inst.n) if eps is None else eps
    if inst.mode == "csi":
        grid = _csi_grid(inst, eps, cap)
        rows = grid.mask.reshape(len(grid.mask), -1)
        per_row = np.count_nonzero(rows, axis=1)
        size = int(per_row.sum())
        if size == 0:
            raise EmptyAmbiguitySetError(f"ambiguity set empty (mode csi, eps {eps})")
        k = int(_philox(seed, _SELECT_TAG).integers(size))
        # Row-major grid order is the canonical order only when label
        # communities are contiguous; otherwise rank k must be resolved on the
        # sorted members.
        contiguous = np.array_equal(
            np.concatenate(grid.labels_of), np.arange(inst.n))
        if contiguous:
            # k-th survivor in row-major order, without listing every survivor
            ends = np.cumsum(per_row)
            r = int(np.searchsorted(ends, k, side="right"))
            col = int(np.flatnonzero(rows[r])[k - ends[r] + per_row[r]])
            idx = np.unravel_index(r * rows.shape[1] + col, grid.mask.shape)
            chosen = _labeling_at(grid, tuple(int(v) for v in idx))
        else:
            members = [_labeling_at(grid, tuple(i)) for i in np.argwhere(grid.mask)]
            chosen = _sorted_members(members)[k]
        space = grid.candidate_space
        tidx = _truth_index(grid, inst.sealed_truth())
        truth_in = bool(grid.mask[tidx]) if tidx is not None else False
    else:
        s = ambiguity_set_wsi(inst, eps, cap=cap)
        size = len(s)
        space = s.candidate_space
        chosen = select_labeling(s, seed)
        truth_map = inst.sealed_truth().mapping
        truth_in = any(m.mapping == truth_map for m in s.labelings)
    acc = inst.score(chosen)
    diag = MatchDiagnostics(
        mode=inst.mode,
        eps=eps,
        ambiguity_size=size,
        candidate_space=space,
        truth_included=truth_in,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return MatchResult(labeling=chosen, accuracy=acc, diagnostics=diag)
