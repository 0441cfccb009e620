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
permutations are enumerated once and combined through boolean masks. A
candidate passes only when every block does, so intra blocks are counted
first and cut each community's axis down to the permutations that pass; an
axis left empty empties the set before any inter block is counted. Inter
block counts for the pairs of survivors come from matrix products with the
survivors' rows of one-hot permutation tables (one product pair per cell
with both symbols >= 1, the other cells from marginal totals).

Most csi blocks are decided from their margins before anything is counted.
A community-preserving candidate only permutes the second graph's slots within
a block, so both graphs' symbol totals in the block are the same for every
candidate, and each cell count is one of those totals plus or minus a sum of
hot counts (both symbols >= 1) that stays in a range the totals fix. One
batched fold over a grid's blocks finds them: a block whose windows contain
their whole ranges passes for every candidate and is never counted; a block
with a window that misses its range passes for none, and the grid is empty
(every axis keeps no permutation) without counting any block. Only the rest
are counted.

The wsi path decides pairs of community assignments the same way. Under a
label-side assignment m1 a labeling puts the vertices in the communities m2
that m1 reads through it, and every label pair falls in the same block on
both sides, so the block's symbol totals are fixed by m1 in the first graph
and by m2 in the second for every labeling that meets the pair (m1, m2). The
same fold, run once over the pairs of swept assignments, marks each pair
passing, dead or undecided; when some block passes under no margins at all,
no pair passes and the pairs are not folded. A walk over m1 then keeps every
labeling that meets a passing pair and drops every one that meets dead
pairs only; only the rest are counted. Their counts come from one matrix
product of the labelings' slot values against a 0/1 table of slots per
(assignment, block, first-graph symbol). A full sweep is the union of the
sweeps over every set of community sizes.

Every window comes from one memoized table, `typicality.count_windows`, which
turns the float expression of `is_jointly_typical` into integer windows of
passing counts, one call per csi grid, per set of wsi pairs and per wsi count
(slot counts broadcast against the model's cells). Every count is checked
against its window in one place, `_within`, so the decisions agree with the
scalar test bit for bit.

An ambiguity set is a boolean mask over a grid of candidates: one axis per
community for csi, over that community's intra survivors in lex order, and
one axis over all n! labelings for wsi. Canonical member order is
lexicographic by the inverse mapping (label -> anonymized vertex):
row-major grid order when label communities are contiguous (always for wsi),
else the order of the survivors' sorted small-int rows. Size, membership and
seeded selection decode at most one member; iteration decodes lazily.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
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
    onto the vertices verts_of[i] permuted by perms[i][r_i], for every axis i.

    perms[i] holds the rows of `_perm_table(k_i)` whose lex ranks are
    ranks[i], ascending, or the shared table itself where ranks[i] is None.
    """

    labels_of: list[np.ndarray]
    verts_of: list[np.ndarray]
    perms: list[np.ndarray]  # per axis, (R_i, k_i), lex order
    ranks: list[Optional[np.ndarray]]
    mask: np.ndarray         # bool, shape (R_1, ..., R_c): the survivors


# Members decoded per step of AmbiguitySet iteration; mask cells left to list
# once selection has halved its range down to them.
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

    @cached_property
    def _size(self) -> int:
        return int(np.count_nonzero(self.grid.mask))

    def __len__(self) -> int:
        return self._size

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


def _onehot_rows(k: int, ranks: Optional[np.ndarray]) -> np.ndarray:
    """Rows of `_onehot_table(k)` at these lex ranks; the shared table itself
    when ranks is None."""
    return _onehot_table(k) if ranks is None else _onehot_table(k)[ranks]


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


@lru_cache(maxsize=None)
def _block_index(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks of c communities: (i, j) rows with i <= j, row-major, and the
    (c, c) table of block numbers; shared, hence read-only."""
    iu, ju = np.triu_indices(c)
    block_of = np.empty((c, c), dtype=np.intp)
    block_of[iu, ju] = block_of[ju, iu] = np.arange(len(iu))
    for a in (iu, ju, block_of):
        a.setflags(write=False)
    return iu, ju, block_of


def _block_totals(values: np.ndarray, comm: np.ndarray, c: int, l: int) -> np.ndarray:
    """Symbol totals (..., block, symbol) of a graph's upper-triangle slots,
    split into blocks by each community map in comm (..., n); one bincount."""
    s1, s2 = _pair_slots(len(values))
    block_of = _block_index(c)[2]
    lead = comm.shape[:-1]
    batch = np.arange(math.prod(lead)).reshape(lead + (1,))
    nb = c * (c + 1) // 2
    idx = (batch * nb + block_of[comm[..., s1], comm[..., s2]]) * l + values[s1, s2]
    return np.bincount(idx.ravel(), minlength=batch.size * nb * l).reshape(lead + (nb, l))


def _block_windows(rows: np.ndarray, cols: np.ndarray, slots: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray
                   ) -> tuple[dict[tuple, tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray]:
    """The windows that decide blocks, and the blocks their margins decide,
    over any (broadcast) leading batch shape.

    rows and cols (..., l) hold a block's first- and second-graph symbol
    totals r_x and c_y, slots (...) its slot count and lo, hi (..., l, l) its
    `count_windows` windows. Every joint type of the block has these margins:
    a community-preserving candidate only permutes the second graph's slots
    within a block, and so does every labeling that meets an assignment pair.

    Cell (x, y) with both symbols >= 1 is hot. Every cell count is a constant
    plus or minus the sum of the hot counts over a rectangle X x Y of hot
    cells, so each count window is a window on that sum, keyed by (X, Y);
    windows on the same sum intersect (at l = 2 all four cells constrain the
    single hot count). The sum counts the slots with a first symbol in X and a
    second in Y, so it lies in [max(0, r_X + c_Y - slots), min(r_X, c_Y)].
    A window containing that whole range holds for every joint type and is
    widened to [0, slots]; a window missing it holds for none.

    Returns (windows, all_pass, dead): windows maps each key to its (lo, hi)
    arrays, all_pass marks the blocks every joint type passes and dead those
    none passes. Zero-slot blocks, with windows [0, 0], pass.
    """
    l = rows.shape[-1]
    hot = tuple(range(1, l))
    r_hot, c_hot = rows[..., 1:].sum(axis=-1), cols[..., 1:].sum(axis=-1)
    base = slots - r_hot - c_hot
    folded: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for x in range(l):
        for y in range(l):
            cl, ch = lo[..., x, y], hi[..., x, y]
            if x and y:
                w = (cl, ch)
            elif x:  # r_x - sum of row x's hot cells
                w = (rows[..., x] - ch, rows[..., x] - cl)
            elif y:  # c_y - sum of column y's hot cells
                w = (cols[..., y] - ch, cols[..., y] - cl)
            else:  # base + sum of all hot cells
                w = (cl - base, ch - base)
            key = ((x,) if x else hot, (y,) if y else hot)
            if key in folded:
                old = folded[key]
                w = (np.maximum(old[0], w[0]), np.minimum(old[1], w[1]))
            folded[key] = w
    shape = np.broadcast_shapes(base.shape, lo.shape[:-2])
    all_pass = np.ones(shape, dtype=bool)
    dead = np.zeros(shape, dtype=bool)
    windows = {}
    for (xset, yset), (wlo, whi) in folded.items():
        r = rows[..., xset[0]] if len(xset) == 1 else r_hot
        c = cols[..., yset[0]] if len(yset) == 1 else c_hot
        rlo, rhi = np.maximum(0, r + c - slots), np.minimum(r, c)
        dead |= np.maximum(wlo, rlo) > np.minimum(whi, rhi)
        binds = (wlo > rlo) | (whi < rhi)
        all_pass &= ~binds
        windows[xset, yset] = (np.where(binds, wlo, 0), np.where(binds, whi, slots))
    return windows, all_pass, dead


def _hot_cells(windows: dict[tuple, tuple[int, int]]) -> list[tuple[int, int]]:
    """The hot cells some window sums over."""
    return sorted({xy for xset, yset in windows for xy in product(xset, yset)})


def _within(ok: np.ndarray, hot: dict[tuple[int, int], np.ndarray],
            windows: dict[tuple, tuple]) -> None:
    """ok &= every window holding on its sum of the hot counts hot[x, y];
    window bounds are ints or arrays broadcast against the counts."""
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


def _inter_mask(a: np.ndarray, b: np.ndarray, e_i: np.ndarray, e_j: np.ndarray,
                windows: dict[tuple, tuple[int, int]]) -> np.ndarray:
    """Typicality mask of one inter block over the (rho_i, rho_j) pairs of the
    one-hot rows e_i and e_j (rows of `_onehot_table`), from the block's
    (k_i, k_j) value matrices a (labels) and b (vertices).

    Hot cell (x, y) counts
    sum_{q1,q2} 1{A[q1,q2]=x} 1{B[rho_i(q1), rho_j(q2)]=y}
    = (E_i @ kron(1{A=x}, 1{B=y}) @ E_j^T)[rho_i, rho_j]; every product and
    partial sum is a small integer, so float32 is exact. rho_j is processed
    in chunks so no more than a few (R_i, chunk) count arrays are alive at
    once.
    """
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
    total = math.prod(math.factorial(len(g)) for g in labels_of)
    if total > cap:
        raise SizeGuardError(f"{total} candidate labelings exceed cap {cap}")
    perms = [_perm_table(len(g)) for g in labels_of]
    g1, g2 = inst.g1_values, inst.g2_values
    iu, ju, _ = _block_index(c)
    # Margins decide a block for every candidate or leave it to be counted;
    # all of them are read before any counting starts.
    rows = _block_totals(g1, comm1, c, inst.model.l)
    cols = _block_totals(g2, comm2, c, inst.model.l)
    slots = rows.sum(axis=-1)
    lo, hi = count_windows(joint[iu, ju], eps, slots[:, None, None])
    windows, all_pass, dead = _block_windows(rows, cols, slots, lo, hi)
    ranks: list[Optional[np.ndarray]] = [None] * c
    if dead.any():  # no candidate passes: every axis keeps no row, and no block is counted
        ranks = [np.zeros(0, dtype=np.intp)] * c
        perms = [p[:0] for p in perms]
        todo = []
    else:
        todo = [(b, int(iu[b]), int(ju[b])) for b in np.flatnonzero(~all_pass).tolist()]

    def block(b: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray, dict]:
        """The block's value matrices (labels, vertices) and binding windows."""
        binding = {key: (int(wlo[b]), int(whi[b])) for key, (wlo, whi) in windows.items()
                   if wlo[b] > 0 or whi[b] < slots[b]}
        return (g1[labels_of[i][:, None], labels_of[j]],
                g2[verts_of[i][:, None], verts_of[j]], binding)

    # A candidate passes only when every block does, so each undecided intra
    # block first cuts its axis down to its survivors (kept in lex order, so
    # row-major order stays canonical), and inter blocks count only pairs of
    # survivors. Axes no intra block cuts keep the shared tables.
    for b, i, j in todo:
        if i == j:
            a, v, binding = block(b, i, j)
            ranks[i] = np.flatnonzero(_intra_mask(a, v, perms[i], binding))
            perms[i] = perms[i][ranks[i]]
            if not len(ranks[i]):
                break
    mask = np.ones(tuple(len(p) for p in perms), dtype=bool)
    for b, i, j in todo:
        if i != j and mask.size:  # an axis that kept nothing leaves no pair
            a, v, binding = block(b, i, j)
            m = _inter_mask(a, v, _onehot_rows(a.shape[0], ranks[i]),
                            _onehot_rows(a.shape[1], ranks[j]), binding)
            mask &= m.reshape(tuple(mask.shape[ax] if ax in (i, j) else 1 for ax in range(c)))
    return _Grid(labels_of=labels_of, verts_of=verts_of, perms=perms, ranks=ranks, mask=mask)


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
    for labels, verts, kept in zip(grid.labels_of, grid.verts_of, grid.ranks):
        vs = tinv[labels]
        if not np.array_equal(np.sort(vs), verts):
            return None
        rank = _lex_rank(np.searchsorted(verts, vs))  # positions within the axis
        if kept is not None:  # the axis keeps some ranks: find rank among them
            at = int(np.searchsorted(kept, rank))
            if at == len(kept) or kept[at] != rank:
                return None
            rank = at
        idx.append(rank)
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


def _member_at(grid: _Grid, k: int, size: int) -> Labeling:
    """The k-th of the grid's size survivors in canonical order. On a full
    contiguous grid it is cell k; on another contiguous grid it is found by
    halving the range on survivor counts, without listing every survivor."""
    if _contiguous(grid):
        flat = grid.mask.reshape(-1)
        lo, hi = 0, flat.size
        if size != flat.size:
            while hi - lo > _SET_CHUNK:
                mid = (lo + hi) // 2
                left = np.count_nonzero(flat[lo:mid])
                if k < left:
                    hi = mid
                else:
                    lo, k = mid, k - left
            k = np.flatnonzero(flat[lo:hi])[k]
        cell = np.unravel_index(lo + k, grid.mask.shape)
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
    space = math.prod(math.factorial(len(g)) for g in grid.labels_of)
    return AmbiguitySet(grid, eps, "csi", space)


@lru_cache(maxsize=1 << 10)
def _assignments(sizes: tuple[int, ...]) -> np.ndarray:
    """Every assignment of sum(sizes) labels to communities with these sizes,
    (|A|, n) in lex order; shared, hence read-only.

    Built from the tables with one label fewer under each first community f
    in turn, which keeps lex order, without a tuple per row.
    """
    n = sum(sizes)
    if n == 0:
        out = np.zeros((1, 0), dtype=np.intp)
    else:
        parts = []
        for f, k in enumerate(sizes):
            if k:
                sub = _assignments(sizes[:f] + (k - 1,) + sizes[f + 1:])
                part = np.empty((len(sub), n), dtype=np.intp)
                part[:, 0], part[:, 1:] = f, sub
                parts.append(part)
        out = np.concatenate(parts)
    out.setflags(write=False)
    return out


def _wsi_profiles(inst: MatchingInstance, full_sweep: bool,
                  cap: int) -> tuple[list[tuple[int, ...]], int]:
    """Community sizes of the swept label-side assignments and the candidate
    space, size-guarded before any assignment is built."""
    n, c = inst.n, inst.c
    if full_sweep:
        if n > 8:
            raise SizeGuardError(f"full assignment sweep is limited to n <= 8, got n={n}")
        count = c ** n
    else:
        count = math.factorial(n) // math.prod(math.factorial(k) for k in inst.sizes)
    total = math.factorial(n) * count
    if total > cap:
        raise SizeGuardError(
            f"{math.factorial(n)} candidates x {count} assignments exceed cap {cap}")
    if not full_sweep:
        return [tuple(inst.sizes)], total
    return [tuple(sizes) for sizes in _compositions(n, c).tolist()], total


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to write total as parts ordered non-negative summands,
    (C(total + parts - 1, parts - 1), parts), from the bar positions."""
    bars = np.asarray(list(combinations(range(total + parts - 1), parts - 1)), dtype=np.intp)
    edges = np.hstack([np.full((len(bars), 1), -1), bars.reshape(len(bars), parts - 1),
                       np.full((len(bars), 1), total + parts - 1)])
    return np.diff(edges, axis=1) - 1


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-d int array: the index of one occurrence of each,
    and the distinct row of every row (an index into the first array)."""
    order = np.lexsort(x.T[::-1])
    xs = x[order]
    new = np.ones(len(x), dtype=bool)
    new[1:] = (xs[1:] != xs[:-1]).any(axis=1)
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


# Margin pairs one block may fold in `_can_pass_all`; beyond it the block is
# assumed to pass under some margins.
_MARGIN_PAIRS = 1 << 16


@lru_cache(maxsize=1 << 10)
def _can_pass_all(p_bytes: bytes, l: int, eps: float, slots: int) -> bool:
    """Whether some first- and second-graph margins make every joint type of
    an l x l block with this many slots pass, by folding every pair of
    margins; a block that cannot is in no passing assignment pair."""
    if math.comb(slots + l - 1, l - 1) ** 2 > _MARGIN_PAIRS:
        return True
    margins = _compositions(slots, l)
    lo, hi = count_windows(np.frombuffer(p_bytes).reshape(l, l), eps, slots)
    _, all_pass, _ = _block_windows(margins[:, None], margins[None], np.asarray(slots), lo, hi)
    return bool(all_pass.any())


def _wsi_pairs(inst: MatchingInstance, eps: float,
               asg: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Margin verdicts of the assignment pairs (m1, m2), (|A|, |A|) each:
    whether every labeling that meets the pair passes, and whether the pair
    is left to be counted; None when no pair can pass.

    A labeling meets (m1, m2) when it maps each label's community under m1
    onto its vertex's community under m2. It keeps every block's slots in the
    block, so each block's first-graph totals (under m1) and second-graph
    totals (under m2) are the margins of its joint type, as in a csi grid.
    All assignments share their sizes, hence their blocks' slot counts, so a
    block that passes under no margins at all leaves no pair passing.
    Otherwise few totals are distinct, and the fold runs once over every
    (block, first-graph totals) x (block, second-graph totals) that occurs;
    the verdicts it gives across two different blocks are never read.
    """
    c, l = inst.c, inst.model.l
    joint = np.asarray(inst.model.joint, dtype=float)
    iu, ju, _ = _block_index(c)
    sizes = np.bincount(asg[0], minlength=c)
    slots = np.where(iu == ju, sizes[iu] * (sizes[iu] - 1) // 2, sizes[iu] * sizes[ju])
    if not all(_can_pass_all(joint[i, j].tobytes(), l, float(eps), k)
               for i, j, k in zip(iu.tolist(), ju.tolist(), slots.tolist())):
        return None
    na = len(asg)
    rows = _block_totals(inst.g1_values, asg, c, l)  # (|A|, block, symbol)
    cols = _block_totals(inst.g2_values, asg, c, l)
    nb = rows.shape[1]
    lo, hi = count_windows(joint[iu, ju], eps, slots[:, None, None])
    block = np.broadcast_to(np.arange(nb), (na, nb)).reshape(-1, 1)
    r_at, r_of = _distinct_rows(np.hstack([block, rows.reshape(-1, l)]))
    c_at, c_of = _distinct_rows(np.hstack([block, cols.reshape(-1, l)]))
    b = block[r_at, 0]
    _, all_pass, dead = _block_windows(rows.reshape(-1, l)[r_at, None], cols.reshape(-1, l)[c_at],
                                       slots[b, None], lo[b, None], hi[b, None])
    # 2 passes, 1 is left to count, 0 is dead; a pair takes its worst block
    state = (all_pass.astype(np.int8) + ~dead).ravel()
    at = r_of.reshape(na, nb).T[:, :, None] * len(c_at) + c_of.reshape(na, nb).T[:, None, :]
    verdict = state[at].min(axis=0)  # (m1, m2)
    return verdict == 2, verdict == 1


# Float32 entries of one (rows, columns) count array in _wsi_count.
_WSI_CHUNK = 1 << 14


def _wsi_count(inst: MatchingInstance, eps: float, asg: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """bool per entry of rows (indices into the lex label -> vertex table):
    is the labeling typical under some assignment of asg? Found by counting.

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
    s1, s2 = _pair_slots(n)
    iu, ju, block_of = _block_index(c)
    nb = len(iu)
    na = len(asg)
    blk = block_of[asg[:, s1], asg[:, s2]]  # (|A|, S)
    # Columns in (block, x, assignment) order, so the test over a labeling's
    # cells reduces across whole rows of assignments.
    cols = (blk * l + inst.g1_values[s1, s2]) * na + np.arange(na)[:, None]
    w = np.zeros((len(s1), nb * l * na), dtype=np.float32)
    w[np.arange(len(s1)), cols] = 1.0
    tot = w.sum(axis=0)  # slots per (block, x, assignment)
    slots = tot.reshape(nb, l, na).sum(axis=1).astype(np.intp)  # per (block, assignment)
    lo, hi = (a.reshape(-1, l).astype(np.float32) for a in count_windows(
        inst.model.joint[iu, ju][:, :, None], eps, slots[:, None, :, None]))
    # Cell y >= 1 bounds the hot count y; cell 0 bounds the sum of all hot
    # counts (at l = 2 both bound the single hot count). x lives in W's
    # columns, so `_within` keys carry the placeholder first-graph symbol 0.
    hot_ys = tuple(range(1, l))
    windows: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
    for y in range(l):
        key, w_lo, w_hi = (((0,), (y,)), lo[:, y], hi[:, y]) if y else (
            ((0,), hot_ys), tot - hi[:, 0], tot - lo[:, 0])
        if key in windows:
            w_lo = np.maximum(windows[key][0], w_lo)
            w_hi = np.minimum(windows[key][1], w_hi)
        windows[key] = (w_lo, w_hi)
    perms = _perm_table(n)
    ok = np.empty(len(rows), dtype=bool)
    step = max(1, _WSI_CHUNK // w.shape[1])
    for r0 in range(0, len(rows), step):
        p = perms[rows[r0:r0 + step]]
        g = np.take(inst.g2_values, p[:, s1] * n + p[:, s2])
        fit = np.ones((len(p), w.shape[1]), dtype=bool)
        _within(fit, {(0, y): (g == y).astype(np.float32) @ w for y in hot_ys}, windows)
        # typical: every (block, x) column group passes under some assignment
        ok[r0:r0 + step] = fit.reshape(len(p), -1, na).all(axis=1).any(axis=1)
    return ok


def _wsi_mask(inst: MatchingInstance, eps: float, sizes: tuple[int, ...]) -> np.ndarray:
    """bool[n!], in lex label -> vertex order: is the labeling typical under
    some assignment of the labels with these community sizes?

    Labeling r under m1 meets the pair (m1, m2) with m2[perms[r, u]] = m1[u].
    m2 is found by its code sum_v m2[v] c^(n-1-v), which equals
    sum_u m1[u] c^(n-1-perms[r, u]) and orders assignments lexicographically,
    as they are listed. The walk takes one m1 at a time over the labelings
    still open, keeps those it meets on a passing pair and stops when none
    is left; labelings that met no passing pair but some undecided one are
    counted, and the rest met dead pairs only.
    """
    asg = _assignments(sizes)
    verdicts = _wsi_pairs(inst, eps, asg)
    perms = _perm_table(inst.n)
    if verdicts is None or not verdicts[0].any():
        return _wsi_count(inst, eps, asg, np.arange(len(perms)))
    passes, undecided = verdicts
    # codes are below c^n < 2^53 for every n whose labeling table fits in
    # memory, so float64 products are exact
    weights = float(inst.c) ** np.arange(inst.n - 1, -1, -1)
    codes = asg @ weights
    ok = np.zeros(len(perms), dtype=bool)
    counted = np.zeros(len(perms), dtype=bool)
    left = np.arange(len(perms))
    left_weights = weights[perms]  # c^(n-1-perms[r, u]) of the labelings left
    for a in np.flatnonzero(passes.any(axis=1) | undecided.any(axis=1)).tolist():
        m2 = np.searchsorted(codes, left_weights @ asg[a])
        hit = passes[a, m2]
        ok[left[hit]] = True
        counted[left[undecided[a, m2]]] = True
        left, left_weights = left[~hit], left_weights[~hit]
        if not left.size:
            break
    todo = np.flatnonzero(counted & ~ok)
    if todo.size:
        ok[todo] = _wsi_count(inst, eps, asg, todo)
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
    assignments (guarded to n <= 8), one set of community sizes at a time.
    """
    eps = default_epsilon(inst.n) if eps is None else eps
    profiles, total = _wsi_profiles(inst, full_sweep, cap)
    mask = np.zeros(math.factorial(inst.n), dtype=bool)
    for sizes in profiles:
        mask |= _wsi_mask(inst, eps, sizes)
    everyone = np.arange(inst.n)
    grid = _Grid(labels_of=[everyone], verts_of=[everyone], perms=[_perm_table(inst.n)],
                 ranks=[None], mask=mask)
    return AmbiguitySet(grid, eps, "wsi", total)


def select_labeling(s: AmbiguitySet, seed: int) -> Labeling:
    """Uniform seeded pick in canonical order; deterministic given the set's
    contents and seed."""
    size = len(s)
    if size == 0:
        raise EmptyAmbiguitySetError(f"ambiguity set empty (mode {s.mode}, eps {s.eps})")
    return _member_at(s.grid, int(_philox(seed, _SELECT_TAG).integers(size)), size)


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
