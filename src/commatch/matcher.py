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
axis left empty empties the set before any inter block is counted. Only
cells with both symbols >= 1 are counted; the others follow from marginal
totals. An intra count is an int8 gather of the second graph's symbol
indicator at the cells each permutation gives the pair slots that hold the
first graph's symbol, summed in int16. Inter block counts for the pairs of
survivors come from one product pair per cell, with the survivors' rows of
one-hot permutation tables around the Kronecker product of the two graphs'
indicators (one broadcast AND). A block's window test is the first write of
its verdict array, and the grid's mask is the first inter verdict, reshaped,
with later ones ANDed into it.

Most csi blocks are decided from their margins before anything is counted.
A community-preserving candidate only permutes the second graph's slots within
a block, so both graphs' symbol totals in the block are the same for every
candidate, and each cell count is one of those totals plus or minus a sum of
hot counts (both symbols >= 1) that stays in a range the totals fix. One
batched fold finds them, over every block of every instance that one
`match_instances` call gets (a campaign's chunk of trials; `run_matching` is
the one-instance case): one bincount gives both graphs' totals, one
`count_windows` lookup the windows. A block whose windows contain their whole
ranges passes for every candidate and is never counted; a block with a window
that misses its range passes for none, and the grid is empty (every axis
keeps no permutation) without counting any block. Only the rest are counted,
one instance's grid at a time, and each set is picked from and dropped before
the next grid is counted.

The wsi path sweeps the label-side assignments with the instance's declared
community sizes and decides pairs of them the same way. Under an assignment
m1 a labeling puts the vertices in the communities m2 that m1 reads through
it, and every label pair falls in the same block on both sides, so the
block's symbol totals are fixed by m1 in the first graph and by m2 in the
second for every labeling that meets the pair (m1, m2). The same fold marks
each pair of swept assignments passing, dead or undecided, pooled over the
instances of one `match_instances` call as for csi: one bincount gives both
graphs' totals under every assignment in every instance, and the windows are
decided once per distinct (block, totals) pair. Instances are folded in
groups whose verdicts fit a fixed budget, so a chunk holds no more than one
group's. Each instance then walks and counts on its own, and its set is
picked from and dropped before the next. A walk over the m1 with a passing
pair keeps every labeling that meets one; if some pair is undecided, every
labeling left is counted, and otherwise the labelings left met dead pairs
only and are out. So when no pair passes the walk takes no step, and when
every pair is dead the set is empty and nothing is counted. Counts come from
one matrix product of the labelings' slot values against a 0/1 table of
slots per (assignment, block, first-graph symbol).

Every window comes from one memoized table, `typicality.count_windows`, which
turns the float expression of `is_jointly_typical` into integer windows of
passing counts (slot counts broadcast against the model's cells), one call
per `match_instances` call in either mode; the wsi pair fold and count share
it. Every count is checked against its window in one place, `_within`, so
the decisions agree with the scalar test bit for bit.

An ambiguity set is a grid of candidates: one axis per community for csi,
over that community's intra survivors in lex order, and one axis over all n!
labelings for wsi. A grid that counted an inter block (and every wsi grid)
holds a boolean mask of its survivors; any other csi grid, whose inter blocks
all pass on their margins (full, intra-cut or dead alike), is a product grid:
every cell of its axes survives and no mask is built. Canonical member order
is lexicographic by the inverse mapping (label -> anonymized vertex):
row-major grid order when label communities are contiguous (always for wsi),
else the order of the survivors' sorted small-int rows. Size, membership and
seeded selection decode at most one member; on a product grid they read the
axes alone, as Python ints over the labels. Iteration decodes lazily.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, product
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import EmptyAmbiguitySetError, ParameterError, SizeGuardError
from .graphgen import MatchingInstance, _stream
from .permutation import Labeling, _unchecked
from .typicality import count_windows, default_epsilon

DEFAULT_CANDIDATE_CAP = 10_000_000
_SELECT_TAG = 0x9E1B


@dataclass(frozen=True)
class _Grid:
    """Candidates as a grid: cell (r_1, ..., r_c) maps the labels labels_of[i]
    onto the vertices verts_of[i] permuted by perms[i][r_i], for every axis i.

    perms[i] holds the rows of `_perm_table(k_i)` whose lex ranks are
    ranks[i], ascending, or the shared table itself where ranks[i] is None.
    mask marks the survivors among the cells; None makes a product grid,
    whose every cell survives.
    """

    labels_of: list[np.ndarray]
    verts_of: list[np.ndarray]
    perms: list[np.ndarray]  # per axis, (R_i, k_i), lex order
    ranks: list[Optional[np.ndarray]]
    mask: Optional[np.ndarray]  # bool, shape (R_1, ..., R_c), or None: every cell


# Members decoded per step of AmbiguitySet iteration; mask cells left to list
# once selection has halved its range down to them.
_SET_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class AmbiguitySet:
    """Labelings that survived the typicality test: the cells of a grid that
    its mask keeps, or all of them on a product grid.

    Iteration yields the members in canonical order; len, `in` and
    select_labeling decode at most one of them, and on a product grid read
    its axes alone: len is the product of the axis lengths and `in` the
    truth's grid coordinates. candidate_space counts the hypotheses
    examined: prod_i n_i! (csi) or n! times the number of assignments with
    the declared community sizes (wsi).
    """

    grid: _Grid
    eps: float
    mode: str
    candidate_space: int

    @cached_property
    def _size(self) -> int:
        if self.grid.mask is None:
            return math.prod(len(p) for p in self.grid.perms)
        return int(np.count_nonzero(self.grid.mask))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Labeling]:
        cells = _sorted_cells(self.grid)
        for c0 in range(0, len(cells), _SET_CHUNK):
            yield from _decode(_grid_rows(self.grid, cells[c0:c0 + _SET_CHUNK]))

    def __contains__(self, lab: Labeling) -> bool:
        idx = _truth_index(self.grid, lab)
        return idx is not None and (self.grid.mask is None or bool(self.grid.mask[idx]))


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
    return _onehot_table(k) if ranks is None else np.take(_onehot_table(k), ranks, axis=0)


@lru_cache(maxsize=None)
def _pair_slots(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of a k x k matrix,
    row-major; shared, hence read-only."""
    slots = np.triu_indices(k, 1)
    for a in slots:
        a.setflags(write=False)
    return slots


@lru_cache(maxsize=None)
def _pair_cells(k: int) -> np.ndarray:
    """Flat k x k cells (R, S) that the row-major pair slots of `_pair_slots(k)`
    take under each row of `_perm_table(k)`; shared, hence read-only."""
    perms = _perm_table(k)
    s1, s2 = _pair_slots(k)
    cells = perms[:, s1] * k + perms[:, s2]
    cells.setflags(write=False)
    return cells


def _lex_rank(rho: Sequence[int]) -> int:
    """Lex rank of the order of rho's distinct entries (of a permutation of
    range(len(rho)), say), from its Lehmer code."""
    rest = sorted(rho)  # the entries not yet placed, ascending
    rank = 0
    for v in rho:  # its Lehmer digit: the entries after it that are smaller
        at = bisect_left(rest, v)
        rank = rank * len(rest) + at
        del rest[at]
    return rank


def _decode(rows: np.ndarray) -> tuple[Labeling, ...]:
    """Labelings of label -> vertex rows, in row order. Rows come from the
    permutation tables, so each is a bijection and is not checked again."""
    return tuple(map(_unchecked, map(tuple, np.argsort(rows, axis=1).tolist())))


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
    """Symbol totals (..., block, symbol) of graphs' upper-triangle slots
    split into blocks by community maps, for values (..., n, n) and comm
    (..., n) broadcast against each other; one bincount."""
    s1, s2 = _pair_slots(values.shape[-1])
    symbol = values[..., s1, s2]
    block = _block_index(c)[2][comm[..., s1], comm[..., s2]]
    lead = np.broadcast_shapes(symbol.shape[:-1], block.shape[:-1])
    batch = np.arange(math.prod(lead)).reshape(lead + (1,))
    nb = c * (c + 1) // 2
    idx = (batch * nb + block) * l + symbol
    return np.bincount(idx.ravel(), minlength=batch.size * nb * l).reshape(lead + (nb, l))


@lru_cache(maxsize=1 << 10)
def _slot_counts(sizes: tuple[int, ...]) -> np.ndarray:
    """Slot count of every block (row-major i <= j) of communities with these
    sizes; shared, hence read-only."""
    iu, ju, _ = _block_index(len(sizes))
    k = np.asarray(sizes)
    slots = np.where(iu == ju, k[iu] * (k[iu] - 1) // 2, k[iu] * k[ju])
    slots.setflags(write=False)
    return slots


@lru_cache(maxsize=1 << 10)
def _label_groups(comm1: tuple[int, ...], c: int) -> tuple[np.ndarray, ...]:
    """The labels of each of c communities under a label-side map, ascending;
    shared, hence read-only."""
    comm1 = np.asarray(comm1)
    groups = tuple(np.flatnonzero(comm1 == i) for i in range(c))
    for g in groups:
        g.setflags(write=False)
    return groups


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


def _within(hot: dict[tuple[int, int], np.ndarray], windows: dict[tuple, tuple],
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Whether every window holds on its sum of the hot counts hot[x, y], as a
    bool array: out when given, else a new one, written first by the first
    window's lower test. Window bounds are ints or arrays broadcast against
    the counts, and windows is not empty. A sum over several cells is a new
    array, so no count array that another window reads is overwritten."""
    for k, ((xset, yset), (wlo, whi)) in enumerate(windows.items()):
        cells = list(product(xset, yset))
        s = hot[cells[0]]
        for xy in cells[1:]:
            s = s + hot[xy]
        if k:
            out &= s >= wlo
        else:
            out = np.greater_equal(s, wlo, out=out)
        out &= s <= whi
    return out


def _intra_mask(a: np.ndarray, b: np.ndarray,
                windows: dict[tuple, tuple[int, int]]) -> np.ndarray:
    """Typicality mask of one intra block over the rows of `_perm_table(k)`,
    from the block's (k, k) value matrices a (labels) and b (vertices).

    Hot cell (x, y) counts the pair slots with a = x whose cell of b under the
    row holds y: an int8 gather of b == y at the row's cells of only the slots
    with a = x, summed in int16 (a count is at most k(k-1)/2).
    """
    s1, s2 = _pair_slots(len(a))
    xv = a[s1, s2]
    cells = _pair_cells(len(a))  # (R, S)
    hot = {(x, y): (b == y).astype(np.int8).ravel()[cells[:, xv == x]].sum(axis=1, dtype=np.int16)
           for x, y in _hot_cells(windows)}
    return _within(hot, windows)


# Float32 elements of one (R_i, chunk) count array in _inter_mask.
_INTER_CHUNK = 1 << 20


def _inter_mask(a: np.ndarray, b: np.ndarray, e_i: np.ndarray, e_j: np.ndarray,
                windows: dict[tuple, tuple[int, int]]) -> np.ndarray:
    """Typicality mask of one inter block over the (rho_i, rho_j) pairs of the
    one-hot rows e_i and e_j (rows of `_onehot_table`), from the block's
    (k_i, k_j) value matrices a (labels) and b (vertices).

    Hot cell (x, y) counts
    sum_{q1,q2} 1{A[q1,q2]=x} 1{B[rho_i(q1), rho_j(q2)]=y}
    = (E_i @ K @ E_j^T)[rho_i, rho_j] with K = 1{A=x} (x) 1{B=y}, the
    Kronecker product, formed by one broadcast &: K[q1*k_i + p1, q2*k_j + p2]
    = 1{A[q1,q2]=x} 1{B[p1,p2]=y}. Every product and partial sum is a small
    integer, so float32 is exact. rho_j is processed in chunks so no more than
    a few (R_i, chunk) count arrays are alive at once, and each chunk's window
    test writes its columns of the mask.
    """
    (ki, kj), ri, rj = a.shape, len(e_i), len(e_j)
    left = {(x, y): e_i @ ((a == x)[:, None, :, None] & (b == y)[None, :, None, :])
            .reshape(ki * ki, kj * kj).astype(np.float32)
            for x, y in _hot_cells(windows)}  # (R_i, k_j^2) each
    ok = np.empty((ri, rj), dtype=bool)
    step = max(1, _INTER_CHUNK // ri)
    for c0 in range(0, rj, step):
        ej_t = e_j[c0:c0 + step].T
        _within({xy: m @ ej_t for xy, m in left.items()}, windows, ok[:, c0:c0 + step])
    return ok


def _csi_sets(insts: Sequence[MatchingInstance], eps: float, cap: int
              ) -> Iterator[AmbiguitySet]:
    """The csi set of each instance, built one at a time as the caller asks.

    The instances share their model and label-side map, so the call is
    refused as a whole, before any set is built: when some instance lacks a
    community map, when the two sides' community sizes differ in some
    instance (the first such one is named), or by the size guard. Then one
    margin fold over the instances decides every block of every one of them
    before any grid is counted.
    """
    if any(inst.comm1_of_label is None or inst.comm2_of_vertex is None for inst in insts):
        raise ParameterError("csi matching needs community maps on both sides")
    first = insts[0]
    c, l = first.c, first.model.l
    labels_of = list(_label_groups(tuple(first.comm1_of_label), c))
    sizes = tuple(len(g) for g in labels_of)
    comm2 = np.array([inst.comm2_of_vertex for inst in insts])  # (instances, n)
    # both sides' community sizes are equal where the two maps sort alike
    differ = (np.sort(comm2, axis=1) != sorted(first.comm1_of_label)).any(axis=1)
    if differ.any():
        m = insts[int(differ.argmax())].comm2_of_vertex
        i = next((i for i in range(c) if m.count(i) != sizes[i]), c)
        raise ParameterError(f"community {i + 1} sizes differ between sides")
    space = math.prod(math.factorial(k) for k in sizes)
    if space > cap:
        raise SizeGuardError(f"{space} candidate labelings exceed cap {cap}")
    # Margins decide a block for every candidate or leave it to be counted;
    # those of every instance are read before any counting.
    t = len(insts)
    g = np.array([inst.g1_values for inst in insts] + [inst.g2_values for inst in insts])
    comm = np.empty((2 * t, comm2.shape[1]), dtype=comm2.dtype)
    comm[:t], comm[t:] = first.comm1_of_label, comm2
    totals = _block_totals(g, comm, c, l)
    slots = _slot_counts(sizes)
    iu, ju, _ = _block_index(c)
    lo, hi = count_windows(first.model.joint[iu, ju], eps, slots[:, None, None])
    windows, all_pass, dead = _block_windows(totals[:t], totals[t:], slots, lo, hi)
    dead = dead.any(axis=1).tolist()
    # vertices grouped by community, ascending within each
    verts = np.argsort(comm2, axis=1, kind="stable")
    ends = list(accumulate(sizes))
    for k, inst in enumerate(insts):
        verts_of = [verts[k, e - len(g):e] for g, e in zip(labels_of, ends)]
        if dead[k]:  # no candidate passes: every axis keeps no row, and no block is counted
            grid = _Grid(labels_of=labels_of, verts_of=verts_of,
                         perms=[_perm_table(len(g))[:0] for g in labels_of],
                         ranks=[np.zeros(0, dtype=np.intp)] * c, mask=None)
        else:
            todo = [(int(iu[b]), int(ju[b]),
                     {key: (int(wlo[k, b]), int(whi[k, b])) for key, (wlo, whi) in windows.items()
                      if wlo[k, b] > 0 or whi[k, b] < slots[b]})
                    for b in np.flatnonzero(~all_pass[k]).tolist()]
            grid = _counted_grid(inst, labels_of, verts_of, todo)
        yield AmbiguitySet(grid, eps, "csi", space)


def _counted_grid(inst: MatchingInstance, labels_of: list[np.ndarray],
                  verts_of: list[np.ndarray], todo: list[tuple[int, int, dict]]) -> _Grid:
    """The grid of an instance none of whose blocks is dead on its margins,
    from its undecided blocks todo: (i, j, binding windows) each. Only a grid
    that counts an inter block holds a mask; any other is the product of its
    axes, however its intra blocks cut them."""
    c = len(labels_of)
    perms = [_perm_table(len(g)) for g in labels_of]
    ranks: list[Optional[np.ndarray]] = [None] * c
    if not todo:  # every block passes on its margins
        return _Grid(labels_of=labels_of, verts_of=verts_of, perms=perms, ranks=ranks, mask=None)
    # both graphs with rows and columns in axis order, labels (vertices)
    # ascending within each axis: every block is a slice of these
    labels, verts = np.concatenate(labels_of), np.concatenate(verts_of)
    g1 = inst.g1_values[labels[:, None], labels]
    g2 = inst.g2_values[verts[:, None], verts]
    ends = list(accumulate(len(g) for g in labels_of))
    span = [slice(e - len(g), e) for g, e in zip(labels_of, ends)]

    def values(i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The block's value matrices (labels, vertices)."""
        return g1[span[i], span[j]], g2[span[i], span[j]]

    # A candidate passes only when every block does, so each undecided intra
    # block first cuts its axis down to its survivors (kept in lex order, so
    # row-major order stays canonical), and inter blocks count only pairs of
    # survivors. Axes no intra block cuts keep the shared tables.
    for i, j, binding in todo:
        if i == j:
            ranks[i] = np.flatnonzero(_intra_mask(*values(i, i), binding))
            perms[i] = np.take(perms[i], ranks[i], axis=0)
            if not len(ranks[i]):
                break
    inter = [(i, j, binding) for i, j, binding in todo if i != j]
    shape = tuple(len(p) for p in perms)
    mask = None
    if inter and all(shape):  # an axis that kept nothing leaves no pair
        # The first verdict, reshaped, is the mask; later ones AND into it,
        # in place once it spans the grid.
        for i, j, binding in inter:
            a, v = values(i, j)
            m = _inter_mask(a, v, _onehot_rows(a.shape[0], ranks[i]),
                            _onehot_rows(a.shape[1], ranks[j]), binding)
            m = m.reshape(tuple(shape[ax] if ax in (i, j) else 1 for ax in range(c)))
            if mask is None:
                mask = m
            elif mask.shape == shape:
                mask &= m
            else:
                mask = mask & m
        if mask.shape != shape:
            mask = np.broadcast_to(mask, shape).copy()
    return _Grid(labels_of=labels_of, verts_of=verts_of, perms=perms, ranks=ranks, mask=mask)


def _grid_rows(grid: _Grid, idx: np.ndarray) -> np.ndarray:
    """Label -> vertex rows of the grid cells idx, (len(idx), n) small ints."""
    n = sum(len(g) for g in grid.labels_of)
    rows = np.empty((len(idx), n), dtype=np.min_scalar_type(n))
    for i, (labels, verts) in enumerate(zip(grid.labels_of, grid.verts_of)):
        rows[:, labels] = verts[grid.perms[i][idx[:, i]]]
    return rows


def _truth_index(grid: _Grid, truth: Labeling) -> Optional[tuple[int, ...]]:
    """Grid coordinates of a labeling, None when it is not in the grid.

    Python ints throughout: an axis holds a few labels, and a numpy call per
    axis costs more than the loop."""
    tinv = truth.inverse().mapping
    idx = []
    for labels, verts, kept in zip(grid.labels_of, grid.verts_of, grid.ranks):
        vs = [tinv[a] for a in labels.tolist()]
        if sorted(vs) != verts.tolist():
            return None
        # the vertices order as their positions within the ascending axis do
        rank = _lex_rank(vs)
        if kept is not None:  # the axis keeps some ranks: find rank among them
            at = bisect_left(kept, rank)
            if at == len(kept) or kept[at] != rank:
                return None
            rank = at
        idx.append(rank)
    return tuple(idx)


def _contiguous(grid: _Grid) -> bool:
    """Whether row-major grid order is canonical (axis labels run 0..n-1):
    each axis's ascending labels run on from the previous axis's."""
    start = 0
    for labels in grid.labels_of:
        k = len(labels)
        if k and (labels[0] != start or labels[k - 1] != start + k - 1):
            return False
        start += k
    return True


def _sorted_cells(grid: _Grid) -> np.ndarray:
    """Coordinates of the survivors, (|S|, axes), in canonical order."""
    if grid.mask is None:  # every cell, row-major
        shape = tuple(len(p) for p in grid.perms)
        cells = np.indices(shape).reshape(len(shape), -1).T
    else:
        cells = np.argwhere(grid.mask)
    if _contiguous(grid):
        return cells
    rows = _grid_rows(grid, cells)
    return cells[np.lexsort(rows.T[::-1])]  # first column most significant


def _member_at(grid: _Grid, k: int, size: int) -> Labeling:
    """The k-th of the grid's size survivors in canonical order. On a
    contiguous grid whose every cell survives it is cell k, a mixed-radix
    decode of k over the axis lengths; on another contiguous grid the cell is
    found by halving the range on survivor counts, without listing every
    survivor."""
    if not _contiguous(grid):
        return _decode_cell(grid, _sorted_cells(grid)[k].tolist())
    if grid.mask is not None and size != grid.mask.size:
        flat = grid.mask.reshape(-1)
        lo, hi = 0, flat.size
        while hi - lo > _SET_CHUNK:
            mid = (lo + hi) // 2
            left = np.count_nonzero(flat[lo:mid])
            if k < left:
                hi = mid
            else:
                lo, k = mid, k - left
        k = lo + int(np.flatnonzero(flat[lo:hi])[k])
    cell = []
    for p in reversed(grid.perms):
        k, r = divmod(k, len(p))
        cell.append(r)
    return _decode_cell(grid, cell[::-1])


def _decode_cell(grid: _Grid, cell: Sequence[int]) -> Labeling:
    """The labeling at one grid cell, on Python ints."""
    mapping = [0] * sum(len(g) for g in grid.labels_of)  # vertex -> label
    for labels, verts, perms, r in zip(grid.labels_of, grid.verts_of, grid.perms, cell):
        verts = verts.tolist()
        for a, q in zip(labels.tolist(), perms[r].tolist()):
            mapping[verts[q]] = a
    return _unchecked(tuple(mapping))


# -- public constructors ------------------------------------------------------

def ambiguity_set_csi(inst: MatchingInstance,
                      eps: Optional[float] = None,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> AmbiguitySet:
    """All typical community-preserving candidates given community maps on
    both sides; `oracle.unrestricted_csi_labelings` scans all n! instead."""
    eps = default_epsilon(inst.n) if eps is None else eps
    return next(_csi_sets([inst], eps, cap))


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


# Entries of the (instances, |A|, |A|) int8 verdicts one `_wsi_fold` call
# holds; a chunk's instances are folded in groups that fit, one instance at
# least. A group peaks at about 7 bytes per verdict entry (a gather as large,
# and the bincount's int64 index and totals), so about 2 MB at 2^18, which
# still folds a 64-trial chunk of (3,3) (|A| = 20) or (4,3) (35) in one group.
# Larger groups save little: on 64 (3,3) instances the fold costs 275, 108,
# 56 and 39 us per instance in groups of 1, 4, 16 and 64.
_WSI_FOLD = 1 << 18


def _wsi_pairs(insts: Sequence[MatchingInstance], asg: np.ndarray, slots: np.ndarray,
               lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, bool]]:
    """Margin verdicts of the assignment pairs (m1, m2) of each instance, as
    the caller asks: an (|A|, |A|) bool of whether every labeling that meets
    the pair passes, and whether any pair is undecided, neither passing nor
    dead.

    A labeling meets (m1, m2) when it maps each label's community under m1
    onto its vertex's community under m2. It keeps every block's slots in the
    block, so each block's first-graph totals (under m1) and second-graph
    totals (under m2) are the margins of its joint type, as in a csi grid.
    The instances share their model and sizes, and all assignments share
    their sizes, hence each block's slot count and count windows (slots, lo
    and hi per block). Instances are folded in groups of at most `_WSI_FOLD`
    verdicts, one `_wsi_fold` each, whose arrays are freed when its group is
    consumed and before the next group is folded.
    """
    group = max(1, _WSI_FOLD // len(asg) ** 2)
    for g0 in range(0, len(insts), group):
        yield from _wsi_fold(insts[g0:g0 + group], asg, slots, lo, hi)


def _wsi_fold(insts: Sequence[MatchingInstance], asg: np.ndarray, slots: np.ndarray,
              lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, bool]]:
    """`_wsi_pairs` of one group of instances, in one fold: one bincount
    gives both graphs' totals under every assignment in every instance. Few
    totals are distinct, and the windows are decided once over every (block,
    first-graph totals) x (block, second-graph totals) that occurs in any
    instance; the verdicts they give across two different blocks are never
    read. Each pair's worst block is folded in one block at a time, so memory
    stays at (instances, |A|, |A|) whatever the block count.
    """
    first = insts[0]
    t, na, nb, l = len(insts), len(asg), len(slots), first.model.l
    g = np.array([inst.g1_values for inst in insts] + [inst.g2_values for inst in insts])
    # (side, instance, assignment, block) rows of symbol totals
    totals = _block_totals(g[:, None], asg, first.c, l).reshape(2, -1, l)
    block = np.broadcast_to(np.arange(nb), (t * na, nb)).reshape(-1, 1)
    r_at, r_of = _distinct_rows(np.hstack([block, totals[0]]))
    c_at, c_of = _distinct_rows(np.hstack([block, totals[1]]))
    b = block[r_at, 0]
    _, all_pass, dead = _block_windows(totals[0][r_at, None], totals[1][c_at],
                                       slots[b, None], lo[b, None], hi[b, None])
    # 2 passes, 1 is left to count, 0 is dead; a pair takes its worst block
    state = all_pass.astype(np.int8) + ~dead
    r_of, c_of = r_of.reshape(t, na, nb), c_of.reshape(t, na, nb)
    verdict = np.full((t, na, na), 2, dtype=np.int8)  # (instance, m1, m2)
    for k in range(nb):
        np.minimum(verdict, state[r_of[:, :, k, None], c_of[:, None, :, k]], out=verdict)
    for v in verdict:
        yield v == 2, bool((v == 1).any())


# Float32 entries of one (rows, columns) count array in _wsi_count.
_WSI_CHUNK = 1 << 14


def _wsi_count(inst: MatchingInstance, asg: np.ndarray, rows: np.ndarray,
               lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """bool per entry of rows (indices into the lex label -> vertex table):
    is the labeling typical under some assignment of asg? Found by counting
    against the count windows lo, hi (block, x, y), which every assignment
    shares.

    Under assignment m1 the vertex side's communities are m1 read through the
    candidate, so label pair (u, v) sits in block (m1[u], m1[v]) on both sides
    and meets g2[ltv[u], ltv[v]]. Cell (x, y) of block b under m1 therefore
    counts (G == y) @ W[:, (b, x, m1)], with G[r, s] the second graph's value
    at slot s under the r-th labeling and W the 0/1 table of the slots per
    (block, first-graph symbol, assignment). Counts are at most the slot
    count, so float32 is exact. Cells with y = 0 follow from W's column totals,
    and labelings are processed in chunks of rows.
    """
    n, l = inst.n, inst.model.l
    s1, s2 = _pair_slots(n)
    block_of = _block_index(inst.c)[2]
    na = len(asg)
    blk = block_of[asg[:, s1], asg[:, s2]]  # (|A|, S)
    # Columns in (block, x, assignment) order, so the test over a labeling's
    # cells reduces across whole rows of assignments.
    cols = (blk * l + inst.g1_values[s1, s2]) * na + np.arange(na)[:, None]
    w = np.zeros((len(s1), len(lo) * l * na), dtype=np.float32)
    w[np.arange(len(s1)), cols] = 1.0
    tot = w.sum(axis=0).reshape(-1, na)  # slots per (block, x) and assignment
    lo, hi = (a.reshape(-1, l, 1).astype(np.float32) for a in (lo, hi))  # ((block, x), y, 1)
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
        fit = _within({(0, y): ((g == y).astype(np.float32) @ w).reshape((len(p),) + tot.shape)
                       for y in hot_ys}, windows)
        # typical: every (block, x) column group passes under some assignment
        ok[r0:r0 + step] = fit.all(axis=1).any(axis=1)
    return ok


def _wsi_mask(inst: MatchingInstance, asg: np.ndarray, passes: np.ndarray, undecided: bool,
              lo: np.ndarray, hi: np.ndarray,
              walk_tables: Callable[[], tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """bool[n!], in lex label -> vertex order: is the labeling typical under
    some assignment of asg, the labels' assignments with the instance's
    community sizes? passes and undecided are the instance's `_wsi_pairs`.

    Labeling r under m1 meets the pair (m1, m2) with m2[perms[r, u]] = m1[u].
    m2 is found by its code sum_v m2[v] c^(n-1-v), which equals
    sum_u m1[u] c^(n-1-perms[r, u]) and orders assignments lexicographically,
    as they are listed. The walk visits only the m1 with a passing pair, one
    at a time over the labelings still left, keeps those it meets on a
    passing pair and stops when none is left. If some pair is undecided,
    every labeling left is counted; otherwise the labelings left met dead
    pairs only and are out. walk_tables() gives the assignments' codes and
    the (n!, n) table of c^(n-1-perms[r, u]), read-only; only a walk asks.
    """
    ok = np.zeros(math.factorial(inst.n), dtype=bool)
    left = np.arange(len(ok))
    walk = np.flatnonzero(passes.any(axis=1)).tolist()
    if walk:
        codes, left_weights = walk_tables()
    for a in walk:
        hit = passes[a, np.searchsorted(codes, left_weights @ asg[a])]
        ok[left[hit]] = True
        left, left_weights = left[~hit], left_weights[~hit]
        if not left.size:
            break
    if undecided and left.size:
        ok[left] = _wsi_count(inst, asg, left, lo, hi)
    return ok


def _wsi_sets(insts: Sequence[MatchingInstance], eps: float, cap: int
              ) -> Iterator[AmbiguitySet]:
    """The wsi set of each instance, built one at a time as the caller asks.

    The instances share their model and community sizes, hence the candidate
    count: the size guard refuses the call as a whole, before any assignment
    is built. Then `_wsi_pairs` decides the assignment pairs of every
    instance, a group of instances per fold, and each instance walks and
    counts its own labelings.
    """
    first = insts[0]
    sizes = tuple(first.sizes)
    labelings = math.factorial(first.n)
    count = labelings // math.prod(math.factorial(k) for k in sizes)
    if labelings * count > cap:
        raise SizeGuardError(f"{labelings} candidates x {count} assignments exceed cap {cap}")
    asg = _assignments(sizes)
    iu, ju, _ = _block_index(first.c)
    slots = _slot_counts(sizes)
    lo, hi = count_windows(first.model.joint[iu, ju], eps, slots[:, None, None])
    everyone = np.arange(first.n)

    @lru_cache(maxsize=None)
    def walk_tables() -> tuple[np.ndarray, np.ndarray]:
        """The walk's codes and weights, built when the call's first instance
        walks and shared by the rest: the weights table is n! x n float64
        (290 MB at n = 10), so it is not kept past the call. Codes are below
        c^n < 2^53 for every n whose labeling table fits in memory, so float64
        products are exact."""
        weights = float(first.c) ** np.arange(first.n - 1, -1, -1)
        table = weights[_perm_table(first.n)]
        table.setflags(write=False)
        return asg @ weights, table

    for inst, (passes, undecided) in zip(insts, _wsi_pairs(insts, asg, slots, lo, hi)):
        mask = _wsi_mask(inst, asg, passes, undecided, lo, hi, walk_tables)
        grid = _Grid(labels_of=[everyone], verts_of=[everyone], perms=[_perm_table(inst.n)],
                     ranks=[None], mask=mask)
        yield AmbiguitySet(grid, eps, "wsi", labelings * count)


def ambiguity_set_wsi(inst: MatchingInstance,
                      eps: Optional[float] = None,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> AmbiguitySet:
    """Union of per-assignment ambiguity sets when communities are unknown.

    A candidate enters when some hypothesized community assignment of the
    labels with the instance's declared sizes makes all blocks jointly
    typical; the anonymized side's assignment is the candidate's image of the
    hypothesis, which is the only pairing with any community-preserving
    candidates, so sweeping assignment pairs reduces to sweeping one side.
    The size guard runs before any assignment is built. `_wsi_sets` for one
    instance.
    """
    eps = default_epsilon(inst.n) if eps is None else eps
    return next(_wsi_sets([inst], eps, cap))


def select_labeling(s: AmbiguitySet, seed: int) -> Labeling:
    """Uniform seeded pick in canonical order; deterministic given the set's
    contents and seed."""
    size = len(s)
    if size == 0:
        raise EmptyAmbiguitySetError(f"ambiguity set empty (mode {s.mode}, eps {s.eps})")
    return _member_at(s.grid, int(_stream(seed, _SELECT_TAG).integers(size)), size)


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


def match_instances(insts: Sequence[MatchingInstance], eps: Optional[float],
                    seeds: Sequence[int], cap: int = DEFAULT_CANDIDATE_CAP
                    ) -> list[Union[MatchResult, EmptyAmbiguitySetError]]:
    """`run_matching` over instances that share their model, sizes, mode and
    label-side map, instance k picking with seeds[k]: per instance its
    MatchResult, or the EmptyAmbiguitySetError its empty set met.

    A job refused before any set exists (no community maps, community sizes
    that differ between the sides, the size guard) cannot differ between such
    instances, so it is raised once for the call. csi blocks of every
    instance are decided in one margin fold, and so are the wsi assignment
    pairs (in groups of instances, `_wsi_pairs`); each set is then built,
    picked from and dropped before the next is built, so at most one is held
    at a time. wall_time_ms runs from the call's start to the instance's
    result.
    """
    t0 = time.perf_counter()
    if len(seeds) != len(insts):
        raise ParameterError(f"{len(insts)} instances need as many seeds, got {len(seeds)}")
    if not insts:
        return []
    first = insts[0]
    if any(inst.model is not first.model or inst.sizes != first.sizes
           or inst.mode != first.mode or inst.comm1_of_label != first.comm1_of_label
           for inst in insts[1:]):
        raise ParameterError("instances matched together share model, sizes, mode "
                             "and label-side map")
    eps = default_epsilon(first.n) if eps is None else eps
    sets = (_csi_sets if first.mode == "csi" else _wsi_sets)(insts, eps, cap)
    return [_caught(_match_result, inst, s, seed, t0) for inst, seed, s in zip(insts, seeds, sets)]


def _caught(fn, *args):
    """fn(*args), or the EmptyAmbiguitySetError it raised, without its
    traceback: the traceback's frames would keep fn's arguments (a set, say)
    alive as long as the error."""
    try:
        return fn(*args)
    except EmptyAmbiguitySetError as e:
        return e.with_traceback(None)


def _match_result(inst: MatchingInstance, s: AmbiguitySet, seed: int, t0: float) -> MatchResult:
    """Pick a member of s, score it against the truth.

    truth_included is evaluation-side information taken from the sealed truth
    after the choice is made.
    """
    chosen = select_labeling(s, seed)
    diag = MatchDiagnostics(
        mode=inst.mode,
        eps=s.eps,
        ambiguity_size=len(s),
        candidate_space=s.candidate_space,
        truth_included=inst.sealed_truth() in s,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return MatchResult(labeling=chosen, accuracy=inst.score(chosen), diagnostics=diag)


def run_matching(inst: MatchingInstance,
                 eps: Optional[float] = None,
                 seed: int = 0,
                 cap: int = DEFAULT_CANDIDATE_CAP) -> MatchResult:
    """Build the mode's ambiguity set, pick a member, score against the truth:
    `match_instances` for one instance, raising the error it met."""
    (result,) = match_instances([inst], eps, [seed], cap)
    if isinstance(result, EmptyAmbiguitySetError):
        raise result
    return result
