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
other cells from marginal totals).

Most csi blocks are decided from their margins before anything is counted.
A community-preserving candidate only permutes the second graph's slots within
a block, so both graphs' symbol totals in the block are the same for every
candidate, and each cell count is one of those totals plus or minus a sum of
hot counts (both symbols >= 1) that stays in a range the totals fix. A block
whose windows contain their whole ranges passes for every candidate and is
never counted; a block with a window that misses its range passes for none,
and the grid is empty without counting any block. Only the rest are counted.

The wsi path counts all labelings under all assignments at once. Under an
assignment the vertex side's communities are the assignment read through the
candidate, so every label pair falls in the same block on both sides: the
block layout depends on the assignment alone and the aligned second-graph
values on the labeling alone. One matrix product of the labelings' slot
values against a 0/1 table of slots per (assignment, block, first-graph
symbol) gives every cell count.

Every count is checked against the integer window `typicality.count_windows`
derives from the float expression of `is_jointly_typical`, so the decisions
agree with it bit for bit.

An ambiguity set is a boolean mask over a grid of candidates: one axis per
community for csi, one axis over all n! labelings for wsi. Canonical member
order is lexicographic by the inverse mapping (label -> anonymized vertex):
row-major grid order when label communities are contiguous (always for wsi),
else the order of the survivors' sorted small-int rows. Size, membership and
seeded selection decode at most one member; iteration decodes lazily.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional

import numpy as np

from .errors import EmptyAmbiguitySetError, ParameterError, SizeGuardError
from .graphgen import MatchingInstance, _philox
from .permutation import Labeling, Permutation
from .typicality import count_windows, default_epsilon

DEFAULT_CANDIDATE_CAP = 10_000_000
_SELECT_TAG = 0x9E1B


@dataclass(frozen=True)
class _Grid:
    """Candidates as a grid: cell (r_1, ..., r_c) maps the labels labels_of[i]
    onto the vertices verts_of[i] permuted by perms[i][r_i], for every axis i."""

    labels_of: list[np.ndarray]
    verts_of: list[np.ndarray]
    perms: list[np.ndarray]  # per axis, (R_i, k_i), lex order
    mask: np.ndarray         # bool, shape (R_1, ..., R_c): the survivors


# Members decoded per step of AmbiguitySet iteration; mask cells per step of selection.
_SET_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class AmbiguitySet:
    """Labelings that survived the typicality test: a mask over a grid.

    Iteration yields the members in canonical order; len, `in` and
    select_labeling decode at most one of them. candidate_space counts the
    hypotheses examined: prod_i n_i! (csi) or n! times the number of swept
    assignments (wsi).
    """

    grid: _Grid
    eps: float
    mode: str
    candidate_space: int

    def __len__(self) -> int:
        return int(np.count_nonzero(self.grid.mask))

    def __iter__(self) -> Iterator[Labeling]:
        cells = _sorted_cells(self.grid)
        for c0 in range(0, len(cells), _SET_CHUNK):
            yield from _decode(_grid_rows(self.grid, cells[c0:c0 + _SET_CHUNK]))

    def __contains__(self, lab: Labeling) -> bool:
        idx = _truth_index(self.grid, lab)
        return idx is not None and bool(self.grid.mask[idx])


# -- csi fast path ------------------------------------------------------------
#
# Communities are matched pointwise under a community-preserving candidate, so
# the candidate factors into per-community position permutations rho_i mapping
# the i-th community's sorted labels onto its sorted anonymized vertices. The
# typicality of the intra block i depends only on rho_i; of the inter block
# (i, j) only on (rho_i, rho_j).

@lru_cache(maxsize=None)
def _perm_table(k: int) -> np.ndarray:
    """Lex-order permutations of range(k), (R, k); shared, hence read-only.

    Built from the table of k - 1 under each first element f (entries >= f
    shift up by one, which keeps lex order), without a tuple per row.
    """
    if k == 0:
        perms = np.zeros((1, 0), dtype=np.intp)
    else:
        sub = _perm_table(k - 1)
        perms = np.empty((k, len(sub), k), dtype=np.intp)
        for f in range(k):
            perms[f, :, 0] = f
            perms[f, :, 1:] = sub + (sub >= f)
        perms = perms.reshape(-1, k)
    perms.setflags(write=False)
    return perms


@lru_cache(maxsize=None)
def _onehot_table(k: int) -> np.ndarray:
    """One-hot table E of `_perm_table(k)`, (R, k*k) float32, with
    E[r, q*k + rho_r(q)] = 1; shared, hence read-only."""
    perms = _perm_table(k)
    onehot = np.zeros((len(perms), k * k), dtype=np.float32)
    onehot[np.arange(len(perms))[:, None], np.arange(k) * k + perms] = 1.0
    onehot.setflags(write=False)
    return onehot


@lru_cache(maxsize=None)
def _pair_slots(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a k x k matrix,
    row-major; shared, hence read-only."""
    slots = np.triu_indices(k, 1)
    for a in slots:
        a.setflags(write=False)
    return slots


def _lex_rank(rho: np.ndarray) -> int:
    """Lex rank of a permutation of range(len(rho)), from its Lehmer code."""
    rho = rho.tolist()  # a Python loop: per-element numpy calls cost ~4x more
    rank = 0
    for q, v in enumerate(rho):
        rank = rank * (len(rho) - q) + sum(w < v for w in rho[q + 1:])
    return rank


def _decode(rows: np.ndarray) -> tuple[Labeling, ...]:
    """Labelings of label -> vertex rows, in row order."""
    return tuple(Permutation(tuple(inv)) for inv in np.argsort(rows, axis=1).tolist())


def _block_windows(p: np.ndarray, eps: float, vals1: np.ndarray,
                   vals2: np.ndarray) -> Optional[dict[tuple, tuple[int, int]]]:
    """The windows that decide one block, or None when no candidate passes it.

    vals1 and vals2 are the block's slot values in the first and second graph,
    in any slot order. A community-preserving candidate only permutes the
    second graph's slots within the block, so the symbol totals r_x of vals1
    and c_y of vals2 are the same for every candidate.

    Cell (x, y) with both symbols >= 1 is hot. Every cell count is a constant
    plus or minus the sum of the hot counts over a rectangle X x Y of hot
    cells, so each `count_windows` window is a window on that sum, keyed by
    (X, Y); windows on the same sum intersect (at l = 2 all four cells
    constrain the single hot count). The sum counts the slots with a first
    symbol in X and a second in Y, so under every candidate it lies in
    [max(0, r_X + c_Y - slots), min(r_X, c_Y)]. A window containing that whole
    range holds for every candidate and is dropped, so {} means every
    candidate passes; a window missing it holds for none.
    """
    slots = vals1.size
    if slots == 0:  # zero-length pairs are typical
        return {}
    l = p.shape[0]
    lo, hi = (w.tolist() for w in count_windows(p, eps, slots))
    rowsum = np.bincount(vals1.ravel(), minlength=l).tolist()
    colsum = np.bincount(vals2.ravel(), minlength=l).tolist()
    hot = tuple(range(1, l))
    base = slots - sum(rowsum[1:]) - sum(colsum[1:])
    folded: dict[tuple, tuple[int, int]] = {}
    for x in range(l):
        for y in range(l):
            cl, ch = lo[x][y], hi[x][y]
            if x and y:
                w = (cl, ch)
            elif x:  # rowsum[x] - sum of row x's hot cells
                w = (rowsum[x] - ch, rowsum[x] - cl)
            elif y:  # colsum[y] - sum of column y's hot cells
                w = (colsum[y] - ch, colsum[y] - cl)
            else:  # base + sum of all hot cells
                w = (cl - base, ch - base)
            key = ((x,) if x else hot, (y,) if y else hot)
            old = folded.get(key, w)
            folded[key] = (max(old[0], w[0]), min(old[1], w[1]))
    windows = {}
    for (xset, yset), (wlo, whi) in folded.items():
        r, c = sum(rowsum[x] for x in xset), sum(colsum[y] for y in yset)
        rlo, rhi = max(0, r + c - slots), min(r, c)
        if max(wlo, rlo) > min(whi, rhi):
            return None
        if wlo > rlo or whi < rhi:
            windows[xset, yset] = (wlo, whi)
    return windows


def _hot_cells(windows: dict[tuple, tuple[int, int]]) -> list[tuple[int, int]]:
    """The hot cells some window sums over."""
    return sorted({xy for xset, yset in windows for xy in product(xset, yset)})


def _within(ok: np.ndarray, hot: dict[tuple[int, int], np.ndarray],
            windows: dict[tuple, tuple[int, int]]) -> None:
    """ok &= every window holding on its sum of the hot counts hot[x, y]."""
    for (xset, yset), (wlo, whi) in windows.items():
        cells = list(product(xset, yset))
        s = hot[cells[0]]
        for xy in cells[1:]:
            s = s + hot[xy]
        ok &= s >= wlo
        ok &= s <= whi


def _intra_mask(a: np.ndarray, b: np.ndarray, perms: np.ndarray,
                windows: dict[tuple, tuple[int, int]]) -> np.ndarray:
    """Typicality mask of one intra block over the rows of perms, from the
    block's (k, k) value matrices a (labels) and b (vertices)."""
    s1, s2 = _pair_slots(len(a))
    xv = a[s1, s2]
    gathered = b[perms[:, s1], perms[:, s2]]  # (R, S)
    hot = {(x, y): np.count_nonzero((gathered == y) & (xv == x), axis=1)
           for x, y in _hot_cells(windows)}
    ok = np.ones(len(perms), dtype=bool)
    _within(ok, hot, windows)
    return ok


# Float32 elements of one (R_i, chunk) count array in _inter_mask.
_INTER_CHUNK = 1 << 20


def _inter_mask(a: np.ndarray, b: np.ndarray,
                windows: dict[tuple, tuple[int, int]]) -> np.ndarray:
    """Typicality mask of one inter block over all (rho_i, rho_j) pairs, from
    the block's (k_i, k_j) value matrices a (labels) and b (vertices).

    Hot cell (x, y) counts
    sum_{q1,q2} 1{A[q1,q2]=x} 1{B[rho_i(q1), rho_j(q2)]=y}
    = (E_i @ kron(1{A=x}, 1{B=y}) @ E_j^T)[rho_i, rho_j] with the one-hot
    tables E of `_onehot_table`; every product and partial sum is a small
    integer, so float32 is exact. rho_j is processed in chunks so no more
    than a few (R_i, chunk) count arrays are alive at once.
    """
    e_i = _onehot_table(a.shape[0])
    e_j = _onehot_table(a.shape[1])
    ri, rj = len(e_i), len(e_j)
    left = {(x, y): e_i @ np.kron(a == x, b == y).astype(np.float32)
            for x, y in _hot_cells(windows)}  # (R_i, k_j^2) each
    ok = np.ones((ri, rj), dtype=bool)
    step = max(1, _INTER_CHUNK // ri)
    for c0 in range(0, rj, step):
        ej_t = e_j[c0:c0 + step].T
        _within(ok[:, c0:c0 + step], {xy: m @ ej_t for xy, m in left.items()}, windows)
    return ok


def _csi_grid(inst: MatchingInstance, eps: float, cap: int) -> _Grid:
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
    perms = [_perm_table(len(g)) for g in labels_of]
    shape = tuple(len(p) for p in perms)
    g1, g2 = inst.g1_values, inst.g2_values
    # Margins decide a block for every candidate or leave it to be counted;
    # all of them are read before any counting starts.
    counted = []
    for i in range(c):
        for j in range(i, c):
            a = g1[labels_of[i][:, None], labels_of[j]]
            b = g2[verts_of[i][:, None], verts_of[j]]
            if i == j:
                ut = _pair_slots(len(a))
                windows = _block_windows(joint[i, i], eps, a[ut], b[ut])
            else:
                windows = _block_windows(joint[i, j], eps, a, b)
            if windows is None:
                return _Grid(labels_of=labels_of, verts_of=verts_of, perms=perms,
                             mask=np.zeros(shape, dtype=bool))
            if windows:
                counted.append((i, j, a, b, windows))
    mask = np.ones(shape, dtype=bool)
    for i, j, a, b, windows in counted:
        m = _intra_mask(a, b, perms[i], windows) if i == j else _inter_mask(a, b, windows)
        mask &= m.reshape(tuple(shape[ax] if ax in (i, j) else 1 for ax in range(c)))
    return _Grid(labels_of=labels_of, verts_of=verts_of, perms=perms, mask=mask)


def _grid_rows(grid: _Grid, idx: np.ndarray) -> np.ndarray:
    """Label -> vertex rows of the grid cells idx, (len(idx), n) small ints."""
    n = sum(len(g) for g in grid.labels_of)
    rows = np.empty((len(idx), n), dtype=np.min_scalar_type(n))
    for i, (labels, verts) in enumerate(zip(grid.labels_of, grid.verts_of)):
        rows[:, labels] = verts[grid.perms[i][idx[:, i]]]
    return rows


def _truth_index(grid: _Grid, truth: Labeling) -> Optional[tuple[int, ...]]:
    """Grid coordinates of a labeling, None when it is not in the grid."""
    tinv = np.asarray(truth.inverse().mapping)
    idx = []
    for labels, verts in zip(grid.labels_of, grid.verts_of):
        vs = tinv[labels]
        if not np.array_equal(np.sort(vs), verts):
            return None
        idx.append(_lex_rank(np.searchsorted(verts, vs)))  # positions within the axis
    return tuple(idx)


def _contiguous(grid: _Grid) -> bool:
    """Whether row-major grid order is canonical (axis labels run 0..n-1)."""
    labels = np.concatenate(grid.labels_of)
    return np.array_equal(labels, np.arange(len(labels)))


def _sorted_cells(grid: _Grid) -> np.ndarray:
    """Coordinates of the survivors, (|S|, axes), in canonical order."""
    cells = np.argwhere(grid.mask)
    if _contiguous(grid):
        return cells
    rows = _grid_rows(grid, cells)
    return cells[np.lexsort(rows.T[::-1])]  # first column most significant


def _member_at(grid: _Grid, k: int) -> Labeling:
    """The k-th survivor in canonical order; on contiguous grids found by
    counting survivors chunk by chunk, without listing every survivor."""
    if _contiguous(grid):
        flat = grid.mask.reshape(-1)
        for c0 in range(0, flat.size, _SET_CHUNK):
            chunk = flat[c0:c0 + _SET_CHUNK]
            hits = np.count_nonzero(chunk)
            if k < hits:
                cell = np.unravel_index(c0 + np.flatnonzero(chunk)[k], grid.mask.shape)
                break
            k -= hits
    else:
        cell = _sorted_cells(grid)[k]
    return _decode(_grid_rows(grid, np.asarray([cell])))[0]


# -- public constructors ------------------------------------------------------

def ambiguity_set_csi(inst: MatchingInstance,
                      eps: Optional[float] = None,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> AmbiguitySet:
    """All typical community-preserving candidates given community maps on
    both sides; `oracle.unrestricted_csi_labelings` scans all n! instead."""
    eps = default_epsilon(inst.n) if eps is None else eps
    grid = _csi_grid(inst, eps, cap)
    return AmbiguitySet(grid, eps, "csi", grid.mask.size)


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


def _wsi_assignments(inst: MatchingInstance, full_sweep: bool,
                     cap: int) -> tuple[list[tuple[int, ...]], int]:
    """Swept label-side assignments and the candidate space, size-guarded."""
    n, c = inst.n, inst.c
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
    return assignments, total


# Float32 entries of one (rows, columns) count array in _wsi_mask.
_WSI_CHUNK = 1 << 14


def _wsi_mask(inst: MatchingInstance, eps: float,
              assignments: list[tuple[int, ...]]) -> np.ndarray:
    """bool[n!], in lex label -> vertex order: is the labeling typical under
    some assignment?

    Under assignment m1 the vertex side's communities are m1 read through the
    candidate, so label pair (u, v) sits in block (m1[u], m1[v]) on both sides
    and meets g2[ltv[u], ltv[v]]. Cell (x, y) of block b under m1 therefore
    counts (G == y) @ W[:, (b, x, m1)], with G[r, s] the second graph's value
    at slot s under the r-th labeling and W the 0/1 table of the slots per
    (block, first-graph symbol, assignment). Counts are at most the slot
    count, so float32 is exact. Cells with y = 0 follow from W's column totals,
    and labelings are processed in chunks of rows.
    """
    n, c, l = inst.n, inst.c, inst.model.l
    joint = inst.model.joint
    s1, s2 = np.triu_indices(n, 1)
    iu, ju = np.triu_indices(c)
    nb = len(iu)
    block_of = np.empty((c, c), dtype=np.intp)
    block_of[iu, ju] = block_of[ju, iu] = np.arange(nb)
    na = len(assignments)
    asg = np.asarray(assignments, dtype=np.intp).reshape(na, n)
    blk = block_of[asg[:, s1], asg[:, s2]]  # (|A|, S)
    # Columns in (block, x, assignment) order, so the test over a labeling's
    # cells reduces across whole rows of assignments.
    cols = (blk * l + inst.g1_values[s1, s2]) * na + np.arange(na)[:, None]
    w = np.zeros((len(s1), nb * l * na), dtype=np.float32)
    w[np.arange(len(s1)), cols] = 1.0
    tot = w.sum(axis=0)  # slots per (block, x, assignment)
    slots = tot.reshape(nb, l, na).sum(axis=1).astype(np.intp)
    # Zero-slot blocks keep the window [0, 0] every cell passes.
    lo = np.zeros((nb, l, na, l), dtype=np.float32)
    hi = np.zeros_like(lo)
    for b in range(nb):
        for k in set(slots[b].tolist()):
            if k:
                on = slots[b] == k
                b_lo, b_hi = count_windows(joint[iu[b], ju[b]], eps, int(k))
                lo[b][:, on], hi[b][:, on] = b_lo[:, None], b_hi[:, None]
    lo, hi = lo.reshape(-1, l), hi.reshape(-1, l)
    # Cell y >= 1 bounds the hot count y; cell 0 bounds the sum of all hot
    # counts (at l = 2 both bound the single hot count).
    hot_ys = tuple(range(1, l))
    windows: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for y in range(l):
        key, w_lo, w_hi = ((y,), lo[:, y], hi[:, y]) if y else (
            hot_ys, tot - hi[:, 0], tot - lo[:, 0])
        if key in windows:
            w_lo = np.maximum(windows[key][0], w_lo)
            w_hi = np.minimum(windows[key][1], w_hi)
        windows[key] = (w_lo, w_hi)
    perms = _perm_table(n)
    ok = np.empty(len(perms), dtype=bool)
    step = max(1, _WSI_CHUNK // w.shape[1])
    for r0 in range(0, len(perms), step):
        p = perms[r0:r0 + step]
        g = np.take(inst.g2_values, p[:, s1] * n + p[:, s2])
        hot = {y: (g == y).astype(np.float32) @ w for y in hot_ys}
        fit = np.ones((len(p), na), dtype=bool)  # (labeling, assignment)
        for ys, (w_lo, w_hi) in windows.items():
            s = hot[ys[0]]
            for y in ys[1:]:
                s = s + hot[y]
            cell_ok = (s >= w_lo) & (s <= w_hi)
            for c0 in range(0, w.shape[1], na):  # one (block, x) group at a time
                fit &= cell_ok[:, c0:c0 + na]
        ok[r0:r0 + step] = fit.any(axis=1)
    return ok


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
    assignments, total = _wsi_assignments(inst, full_sweep, cap)
    everyone = np.arange(inst.n)
    grid = _Grid(labels_of=[everyone], verts_of=[everyone], perms=[_perm_table(inst.n)],
                 mask=_wsi_mask(inst, eps, assignments))
    return AmbiguitySet(grid, eps, "wsi", total)


def select_labeling(s: AmbiguitySet, seed: int) -> Labeling:
    """Uniform seeded pick in canonical order; deterministic given the set's
    contents and seed."""
    size = len(s)
    if size == 0:
        raise EmptyAmbiguitySetError(f"ambiguity set empty (mode {s.mode}, eps {s.eps})")
    return _member_at(s.grid, int(_philox(seed, _SELECT_TAG).integers(size)))


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

    truth_included is evaluation-side information taken from the sealed truth
    after the choice is made.
    """
    t0 = time.perf_counter()
    eps = default_epsilon(inst.n) if eps is None else eps
    build = ambiguity_set_csi if inst.mode == "csi" else ambiguity_set_wsi
    s = build(inst, eps, cap=cap)
    chosen = select_labeling(s, seed)
    diag = MatchDiagnostics(
        mode=inst.mode,
        eps=eps,
        ambiguity_size=len(s),
        candidate_space=s.candidate_space,
        truth_included=inst.sealed_truth() in s,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return MatchResult(labeling=chosen, accuracy=inst.score(chosen), diagnostics=diag)
