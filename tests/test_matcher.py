import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from commatch import matcher
from commatch.errors import EmptyAmbiguitySetError, ParameterError, SizeGuardError
from commatch.graphgen import anonymize, sample_pair
from commatch.matcher import (
    DEFAULT_CANDIDATE_CAP,
    AmbiguitySet,
    _block_windows,
    _Grid,
    _lex_rank,
    _onehot_table,
    _pair_cells,
    _pair_slots,
    _perm_table,
    _truth_index,
    ambiguity_set_csi,
    ambiguity_set_wsi,
    run_matching,
    select_labeling,
)
from commatch.model import (
    CommunityLayout,
    PairedEdgeModel,
    copy_joint,
    dsbs_joint,
    homogeneous_model,
    single_community,
    uniform_product_joint,
)
from commatch.oracle import unrestricted_csi_labelings
from commatch.permutation import Permutation
from commatch.typicality import (
    blocks_jointly_typical,
    count_windows,
    default_epsilon,
    is_jointly_typical,
    joint_type,
    paired_blocks,
)


def _instance(seed, sizes=(3, 3), joint=None, mode="csi", shuffle=None, membership=None):
    j = dsbs_joint(0.2) if joint is None else joint
    model, lay = homogeneous_model(j, sizes)
    if membership is not None:
        lay = CommunityLayout(sizes=tuple(sizes), membership=membership)
    pair = sample_pair(model, lay, seed)
    return anonymize(pair, mode, shuffle_seed=seed if shuffle is None else shuffle)


def _typical(inst, sigma, eps):
    # independent membership check straight from the block definitions
    ltv = sigma.inverse().mapping
    blocks = paired_blocks(inst.g1_values, inst.comm1_of_label,
                           inst.g2_values, ltv, inst.comm2_of_vertex, inst.c)
    return blocks_jointly_typical(blocks, inst.model.joint, eps)


def _labeling_at(grid, idx):
    return matcher._decode(matcher._grid_rows(grid, np.asarray([idx])))[0]


def _mask(grid):
    """The grid's survivors as a bool array: its mask, or every cell of a
    product grid, materialized."""
    if grid.mask is None:
        return np.ones(tuple(len(p) for p in grid.perms), dtype=bool)
    return grid.mask


def _blocks(inst, sigma):
    return paired_blocks(inst.g1_values, inst.comm1_of_label, inst.g2_values,
                         sigma.inverse().mapping, inst.comm2_of_vertex, inst.c)


def _preserving(inst):
    # every community-preserving labeling, built straight from the community maps
    groups = [([a for a in range(inst.n) if inst.comm1_of_label[a] == i],
               [v for v in range(inst.n) if inst.comm2_of_vertex[v] == i])
              for i in range(inst.c)]
    for choice in itertools.product(*(itertools.permutations(vs) for _, vs in groups)):
        ltv = [0] * inst.n
        for (labels, _), vs in zip(groups, choice):
            for a, v in zip(labels, vs):
                ltv[a] = v
        yield Permutation(tuple(ltv)).inverse()


EPS_GRID = [i / 20 for i in range(1, 14)]  # 0.05, 0.10, ..., 0.65


def _brute_csi(inst, eps):
    # all community-consistent bijections, filtered by the same block test
    found = set()
    for mapping in itertools.permutations(range(inst.n)):
        sigma = Permutation(mapping)
        if any(inst.comm1_of_label[sigma(v)] != inst.comm2_of_vertex[v]
               for v in range(inst.n)):
            continue
        if _typical(inst, sigma, eps):
            found.add(mapping)
    return found


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("eps", [0.15, 0.3, 0.5])
def test_csi_set_matches_brute_force(seed, eps):
    inst = _instance(seed)
    got = {p.mapping for p in ambiguity_set_csi(inst, eps=eps)}
    assert got == _brute_csi(inst, eps)


@pytest.mark.parametrize("sizes", [(2, 3), (4,), (2, 2, 2)])
def test_csi_set_matches_brute_force_other_layouts(sizes):
    inst = _instance(seed=9, sizes=sizes, joint=dsbs_joint(0.3))
    eps = 0.4
    got = {p.mapping for p in ambiguity_set_csi(inst, eps=eps)}
    assert got == _brute_csi(inst, eps)


@pytest.mark.parametrize("sizes", [(4, 4), (2, 3, 4)])
@pytest.mark.parametrize("joint", [copy_joint(2), dsbs_joint(0.25), copy_joint(3)],
                         ids=["copy", "dsbs", "copy3"])
def test_csi_full_grid_matches_scalar_test(sizes, joint):
    # unequal community sizes exercise the one-hot/kron index layout of the
    # inter masks; copy(3) exercises windows on sums of several hot cells
    inst = _instance(seed=5, sizes=sizes, joint=joint)
    cands = [(sigma.mapping, _blocks(inst, sigma)) for sigma in _preserving(inst)]
    assert len(cands) == math.prod(math.factorial(k) for k in sizes)
    for eps in EPS_GRID:
        want = {m for m, b in cands if blocks_jointly_typical(b, inst.model.joint, eps)}
        assert {p.mapping for p in ambiguity_set_csi(inst, eps=eps)} == want, eps


# An l = 3 joint whose blocks bind windows on sums of several hot cells next
# to windows on single cells that share their counts.
_SHARED_COUNTS = np.array([[0.15, 0.15, 0.1], [0.15, 0.1, 0.1], [0.1, 0.1, 0.05]])


def _scalar_set(inst, eps):
    """The csi set by the scalar block test over every community-preserving
    labeling."""
    return {sigma.mapping for sigma in _preserving(inst)
            if blocks_jointly_typical(_blocks(inst, sigma), inst.model.joint, eps)}


def _counted_windows(monkeypatch):
    """Record the binding windows of every counted intra and inter block."""
    seen = []
    intra, inter = matcher._intra_mask, matcher._inter_mask

    def intra_spy(a, b, windows):
        seen.append(("intra", list(windows)))
        return intra(a, b, windows)

    def inter_spy(a, b, e_i, e_j, windows):
        seen.append(("inter", list(windows)))
        return inter(a, b, e_i, e_j, windows)

    monkeypatch.setattr(matcher, "_intra_mask", intra_spy)
    monkeypatch.setattr(matcher, "_inter_mask", inter_spy)
    return seen


@pytest.mark.parametrize("sizes, eps, seed", [((4, 4), 0.2, 2), ((4, 4), 0.25, 5),
                                              ((4, 3), 0.3, 2), ((3, 3, 3), 0.25, 4)])
def test_l3_windows_sharing_counts_match_scalar_test(monkeypatch, sizes, eps, seed):
    # a window on a sum of hot counts must not write into the count arrays
    # that later windows of the same block read
    inst = _instance(seed=seed, sizes=sizes, joint=_SHARED_COUNTS)
    seen = _counted_windows(monkeypatch)
    got = {p.mapping for p in ambiguity_set_csi(inst, eps=eps)}
    assert got == _scalar_set(inst, eps)
    assert any(len(keys) > 1 and any(len(x) * len(y) > 1 for x, y in keys)
               for _, keys in seen)


@pytest.mark.parametrize("sizes, joint, eps, seed", [
    ((4, 4), dsbs_joint(0.1), 0.3, 0),
    ((4, 3), dsbs_joint(0.1), 0.3, 1),
    ((3, 3, 3), _SHARED_COUNTS, 0.25, 4),
], ids=["dsbs44", "dsbs43", "shared333"])
def test_inter_chunks_give_the_same_set(monkeypatch, sizes, joint, eps, seed):
    # chunks of rho_j as small as one column write the same mask
    inst = _instance(seed=seed, sizes=sizes, joint=joint)
    seen = _counted_windows(monkeypatch)
    whole = ambiguity_set_csi(inst, eps=eps)
    assert whole.grid.mask is not None and any(kind == "inter" for kind, _ in seen)
    want = _scalar_set(inst, eps)
    assert {p.mapping for p in whole} == want
    for chunk in (1, 7, 50):
        monkeypatch.setattr(matcher, "_INTER_CHUNK", chunk)
        s = ambiguity_set_csi(inst, eps=eps)
        assert np.array_equal(s.grid.mask, whole.grid.mask), chunk
        assert {p.mapping for p in s} == want


def test_k7_intra_block_matches_the_oracle(monkeypatch):
    # one community of 7: the intra block is the only block, counted over
    # all 5,040 rows
    inst = _instance(seed=0, sizes=(7,), joint=dsbs_joint(0.1))
    seen = _counted_windows(monkeypatch)
    got = ambiguity_set_csi(inst, eps=0.2)
    assert seen == [("intra", [((1,), (1,))])] and len(got) == 180
    assert {p.mapping for p in got} == {p.mapping for p in unrestricted_csi_labelings(inst, 0.2)}


@pytest.mark.parametrize("sizes", [(5, 5), (6, 6)])
@pytest.mark.parametrize("joint", [copy_joint(2), dsbs_joint(0.1)], ids=["copy", "dsbs"])
def test_csi_grid_sample_matches_scalar_test(sizes, joint):
    # labelings drawn uniformly from the whole community-preserving space by
    # per-community lex ranks, decoded on the eps = 1 grid, which keeps every
    # row; at each eps the set's grid may keep fewer
    inst = _instance(seed=3, sizes=sizes, joint=joint)
    full = ambiguity_set_csi(inst, 1.0).grid
    assert full.ranks == [None] * len(sizes)
    rng = np.random.default_rng(sum(sizes))
    sample = {tuple(int(rng.integers(math.factorial(k))) for k in sizes) for _ in range(80)}
    cands = []
    for idx in sorted(sample):
        sigma = _labeling_at(full, idx)
        assert _truth_index(full, sigma) == idx
        cands.append((sigma, _blocks(inst, sigma)))
    for eps in EPS_GRID:
        s = ambiguity_set_csi(inst, eps=eps)
        for sigma, blocks in cands:
            typical = blocks_jointly_typical(blocks, inst.model.joint, eps)
            assert (sigma in s) == typical, (sigma, eps)
            if typical:
                assert _labeling_at(s.grid, _truth_index(s.grid, sigma)) == sigma


def test_csi_grid_keeps_float_boundary_counts():
    # copy (5,5) at eps 0.3: an inter cell at p = 0.5 holding 5 of 25 slots
    # passes, because abs(5 / 25 - 0.5) <= 0.3 holds in float64
    assert abs(5 / 25 - 0.5) <= 0.3
    inst = _instance(seed=0, sizes=(5, 5), joint=copy_joint(2))
    grid = ambiguity_set_csi(inst, 0.3).grid
    rng = np.random.default_rng(7)
    on_boundary = 0
    for _ in range(300):
        idx = tuple(int(rng.integers(len(p))) for p in grid.perms)
        blocks = _blocks(inst, _labeling_at(grid, idx))
        typical = blocks_jointly_typical(blocks, inst.model.joint, 0.3)
        assert _mask(grid)[idx] == typical
        counts = joint_type(*blocks[(0, 1)], shape=(2, 2))
        on_boundary += typical and 5 in (counts[0, 0], counts[1, 1])
    assert on_boundary > 0


# -- margin verdicts ------------------------------------------------------------

def _tables(l, slots):
    """Every l x l joint type with the given slot count, (N, l, l)."""
    cells = l * l
    bars = np.array(list(itertools.combinations(range(slots + cells - 1), cells - 1)))
    edges = np.hstack([np.full((len(bars), 1), -1), bars,
                       np.full((len(bars), 1), slots + cells - 1)])
    return (np.diff(edges, axis=1) - 1).reshape(-1, l, l)


def _slot_values(table):
    """Aligned first- and second-graph slot values with this joint type."""
    l = len(table)
    xs = np.repeat(np.repeat(np.arange(l), l), table.ravel())
    ys = np.repeat(np.tile(np.arange(l), l), table.ravel())
    return xs, ys


def _holds(windows, tables, at):
    """Whether every window holds on the tables' sums over its rectangle,
    table t read against batch entry at[t] of the windows."""
    ok = np.ones(len(tables), dtype=bool)
    for (xs, ys), (wlo, whi) in windows.items():
        s = tables[:, list(xs)][:, :, list(ys)].sum(axis=(1, 2))
        ok &= (s >= wlo[at]) & (s <= whi[at])
    return ok


def _passes(p, eps, tables):
    lo, hi = count_windows(p, eps, int(tables[0].sum()))
    return ((tables >= lo) & (tables <= hi)).all(axis=(1, 2))


def _margin_verdict(p, eps, a, b):
    """_block_windows of one block, as a batch of one, from its slot values."""
    l = len(p)
    rows = np.bincount(np.asarray(a, dtype=np.intp), minlength=l)
    cols = np.bincount(np.asarray(b, dtype=np.intp), minlength=l)
    lo, hi = count_windows(p, eps, len(a))
    return _block_windows(rows[None], cols[None], np.asarray([len(a)]), lo, hi)


L2_JOINTS = [copy_joint(2), dsbs_joint(0.1), dsbs_joint(0.25), uniform_product_joint(2)]


@pytest.mark.parametrize("l, joints, max_slots", [(2, L2_JOINTS, 12), (3, [copy_joint(3)], 6)],
                         ids=["l2", "copy3"])
def test_block_windows_decide_every_joint_type(l, joints, max_slots):
    # Every joint type with every consistent pair of margins, on the 0.05 eps
    # grid, in one batch per window set: a type passes exactly when its block
    # is not dead and its windows hold; all_pass blocks pass every type with
    # their margins and dead ones none. The helper reads eps only through
    # count_windows, so each distinct window set runs once.
    seen = set()
    for slots in range(1, max_slots + 1):
        tables = _tables(l, slots)
        margins = np.hstack([tables.sum(axis=2), tables.sum(axis=1)])
        uniq, group = np.unique(margins, axis=0, return_inverse=True)
        group = group.ravel()
        for p in joints:
            for eps in [e / 20 for e in range(1, 21)]:
                lo, hi = count_windows(p, eps, slots)
                if (slots, lo.tobytes(), hi.tobytes()) in seen:
                    continue
                seen.add((slots, lo.tobytes(), hi.tobytes()))
                want = _passes(p, eps, tables)
                windows, all_pass, dead = _block_windows(uniq[:, :l], uniq[:, l:],
                                                         np.asarray(slots), lo, hi)
                got = ~dead[group] & _holds(windows, tables, group)
                assert (got == want).all(), (slots, eps)
                assert want[all_pass[group]].all() and not want[dead[group]].any()
                # at l = 2 a type is fixed by its margins and its single hot
                # count, which takes every value of the range: only blocks
                # that some types pass and others fail are left to count
                if l == 2:
                    for g in np.flatnonzero(~all_pass & ~dead):
                        members = want[group == g]
                        assert 0 < members.sum() < len(members), (slots, eps, uniq[g])


def test_block_windows_decide_sampled_joint_types():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    joints = [(p, 2) for p in L2_JOINTS] + [(copy_joint(3), 3), (uniform_product_joint(3), 3)]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.sampled_from(joints), st.integers(1, 20),
                      st.lists(st.integers(0, 12), min_size=9, max_size=9))
    def check(joint, e, counts):
        p, l = joint
        table = np.asarray(counts[:l * l]).reshape(l, l)
        hypothesis.assume(table.sum() > 0)
        windows, all_pass, dead = _margin_verdict(p, e / 20, *_slot_values(table))
        want = bool(_passes(p, e / 20, table[None])[0])
        assert (not dead[0] and bool(_holds(windows, table[None], [0])[0])) == want
        assert not (all_pass[0] and not want) and not (dead[0] and want)

    check()


def test_block_windows_pass_zero_slot_blocks():
    # a batch of zero-slot blocks, with the [0, 0] windows count_windows gives
    lo, hi = count_windows(copy_joint(3), 0.05, 0)
    assert not lo.any() and not hi.any()
    zero = np.zeros((4, 3), dtype=np.intp)
    windows, all_pass, dead = _block_windows(zero, zero, np.zeros(4, dtype=np.intp), lo, hi)
    assert all_pass.all() and not dead.any()
    assert all((wlo == 0).all() and (whi == 0).all() for wlo, whi in windows.values())


def _refuse_counting(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was counted")

    monkeypatch.setattr(matcher, "_intra_mask", refuse)
    monkeypatch.setattr(matcher, "_inter_mask", refuse)


def test_default_schedule_copy_66_is_decided_on_margins(monkeypatch):
    _refuse_counting(monkeypatch)
    inst = _instance(seed=0, sizes=(6, 6), joint=copy_joint(2))
    res = run_matching(inst, seed=11)
    assert res.labeling.mapping == (11, 3, 9, 8, 0, 6, 2, 7, 5, 10, 1, 4)
    assert res.accuracy == 1 / 12
    d = res.diagnostics
    assert (d.mode, d.eps) == ("csi", default_epsilon(12))
    assert d.ambiguity_size == d.candidate_space == math.factorial(6) ** 2
    assert d.truth_included


def test_dead_block_gives_pruned_empty_grid(monkeypatch):
    # dsbs(0.1) (3,3,3,3) at eps 0.3: some block's margins leave no typical count
    inst = _instance(seed=0, sizes=(3, 3, 3, 3), joint=dsbs_joint(0.1))
    dead = [(i, j) for i in range(4) for j in range(i, 4)
            if _margin_verdict(inst.model.joint[i, j], 0.3,
                               *_blocks(inst, inst.sealed_truth())[(i, j)])[2][0]]
    assert dead
    _refuse_counting(monkeypatch)
    s = ambiguity_set_csi(inst, eps=0.3)
    assert _mask(s.grid).shape == (0, 0, 0, 0) and not _mask(s.grid).any()  # no axis keeps a row
    assert s.candidate_space == 6 ** 4 and len(s) == 0
    assert not _typical(inst, inst.sealed_truth(), 0.3)
    assert inst.sealed_truth() not in s


# -- prune-then-pair --------------------------------------------------------------

def _intra_survivors(inst, eps, i):
    """Lex ranks of the permutations of community i whose intra block is
    typical, each tried in a labeling that keeps the other communities fixed."""
    full = ambiguity_set_csi(inst, 1.0).grid
    keep = []
    for r in range(len(full.perms[i])):
        sigma = _labeling_at(full, tuple(r if ax == i else 0 for ax in range(inst.c)))
        if is_jointly_typical(*_blocks(inst, sigma)[(i, i)], inst.model.joint[i, i], eps):
            keep.append(r)
    return keep


@pytest.mark.parametrize("seed, sizes, joint", [(3, (6, 6), dsbs_joint(0.1)),
                                                (1, (5, 5), uniform_product_joint(2))],
                         ids=["dsbs66", "product55"])
def test_inter_blocks_count_intra_survivors_only(monkeypatch, seed, sizes, joint):
    # dsbs(0.1) (6,6) cuts both axes; on the product (5,5) instance margins
    # pass one intra block, and that axis keeps the shared tables
    inst = _instance(seed=seed, sizes=sizes, joint=joint)
    seen = []
    inter_mask = matcher._inter_mask

    def spy(a, b, e_i, e_j, windows):
        seen.append((e_i, e_j))
        return inter_mask(a, b, e_i, e_j, windows)

    monkeypatch.setattr(matcher, "_inter_mask", spy)
    s = ambiguity_set_csi(inst, eps=0.3)
    ((e_0, e_1),) = seen
    kept = [_intra_survivors(inst, 0.3, i) for i in range(2)]
    assert _mask(s.grid).shape == tuple(len(k) for k in kept)
    assert any(0 < len(k) < math.factorial(n) for k, n in zip(kept, sizes))
    for i, (k, e) in enumerate(zip(sizes, (e_0, e_1))):
        if s.grid.ranks[i] is None:
            assert len(kept[i]) == math.factorial(k)
            assert e is _onehot_table(k) and s.grid.perms[i] is _perm_table(k)
        else:
            assert s.grid.ranks[i].tolist() == kept[i]
            assert np.array_equal(e, _onehot_table(k)[kept[i]])
            assert np.array_equal(s.grid.perms[i], _perm_table(k)[kept[i]])


def test_an_axis_without_intra_survivors_empties_the_set(monkeypatch):
    # dsbs(0.1) (5,5) at eps 0.15: no permutation of community 2 passes its
    # intra block, although its margins leave the block undecided
    inst = _instance(seed=3, sizes=(5, 5), joint=dsbs_joint(0.1))
    assert _intra_survivors(inst, 0.15, 1) == []

    def refuse(*args):
        raise AssertionError("an inter block was counted")

    monkeypatch.setattr(matcher, "_inter_mask", refuse)
    s = ambiguity_set_csi(inst, eps=0.15)
    assert len(s) == 0 and list(s) == [] and _mask(s.grid).shape[1] == 0
    assert s.candidate_space == math.factorial(5) ** 2
    assert inst.sealed_truth() not in s
    with pytest.raises(EmptyAmbiguitySetError):
        run_matching(inst, eps=0.15)


def test_labelings_failing_an_intra_block_are_not_in_the_set():
    inst = _instance(seed=3, sizes=(6, 6), joint=dsbs_joint(0.1))
    s = ambiguity_set_csi(inst, eps=0.3)
    full = ambiguity_set_csi(inst, 1.0).grid
    kept = s.grid.ranks[0].tolist()
    other = int(s.grid.ranks[1][0])  # a survivor of community 2
    assert 0 < len(kept) < 720
    for r in range(720):
        sigma = _labeling_at(full, (r, other))
        if r in kept:
            assert _truth_index(s.grid, sigma) == (kept.index(r), 0)
        else:
            x, y = _blocks(inst, sigma)[(0, 0)]
            assert not is_jointly_typical(x, y, inst.model.joint[0, 0], 0.3)
            assert _truth_index(s.grid, sigma) is None
            assert sigma not in s


def _mixed_234(seed, membership):
    # dsbs(0.1) on every block but the intra block of the size-2 community:
    # its one slot is never typical under dsbs(0.1) at eps < 0.55 (every cell
    # has p <= 0.45), so there the slot is (0, 0) with p = 0.85 or (1, 1)
    model, _ = homogeneous_model(dsbs_joint(0.1), (2, 3, 4))
    joint = model.joint.copy()
    joint[0, 0] = [[0.85, 0.0], [0.0, 0.15]]
    model = PairedEdgeModel(joint)
    pair = sample_pair(model, CommunityLayout(sizes=(2, 3, 4), membership=membership), seed)
    return anonymize(pair, "csi", shuffle_seed=seed)


@pytest.mark.parametrize("inst", [
    pytest.param(lambda: _instance(seed=4, joint=copy_joint(2), membership=(0, 1, 0, 1, 1, 0)),
                 id="33-interleaved"),
    pytest.param(lambda: _mixed_234(0, (2, 0, 1, 2, 1, 2, 0, 1, 2)), id="234-interleaved"),
])
def test_pruned_grids_match_brute_force(inst):
    inst = inst()
    pruned = 0
    for eps in (0.2, 0.3):
        s = ambiguity_set_csi(inst, eps=eps)
        assert {p.mapping for p in s} == _brute_csi(inst, eps), eps
        keys = [p.inverse().mapping for p in s]
        assert keys == sorted(keys)
        pruned += len(s) > 0 and any(r is not None for r in s.grid.ranks)
    assert pruned


def test_perm_tables_are_shared_and_read_only():
    perms, onehot = _perm_table(4), _onehot_table(4)
    assert _perm_table(4) is perms and _onehot_table(4) is onehot
    assert not perms.flags.writeable and not onehot.flags.writeable
    assert perms.tolist() == [list(p) for p in itertools.permutations(range(4))]
    assert (onehot.reshape(-1, 4, 4).argmax(axis=2) == perms).all()
    assert (onehot.sum(axis=1) == 4).all()
    assert [_lex_rank(p) for p in perms] == list(range(len(perms)))
    # the intra gather's flat pair cells: shared, read-only, one per (row, slot)
    cells = _pair_cells(4)
    assert _pair_cells(4) is cells and not cells.flags.writeable
    s1, s2 = _pair_slots(4)
    b = np.arange(16).reshape(4, 4)
    assert np.array_equal(b.ravel()[cells], b[perms[:, s1], perms[:, s2]])


@pytest.mark.parametrize("membership", [None, (0, 1, 0, 1, 0, 1, 0, 1)],
                         ids=["contiguous", "alternating"])
def test_decoding_members_runs_no_validation(monkeypatch, membership):
    # members are decoded from permutation-table rows, which are bijections,
    # so neither iteration nor a pick runs Permutation's check
    inst = _instance(seed=3, sizes=(4, 4), joint=dsbs_joint(0.1), membership=membership)
    s = ambiguity_set_csi(inst, eps=0.3)
    assert s.grid.mask is not None and len(s) == 246

    def refuse(self):
        raise AssertionError("a decoded member was validated")

    with monkeypatch.context() as m:
        m.setattr(Permutation, "__post_init__", refuse)
        members = list(s)
        picked = select_labeling(s, 5)
    assert len(members) == len(s) and picked in members
    for p in members:
        assert type(p) is Permutation and p == Permutation(p.mapping)
    assert members == sorted(members, key=lambda p: p.inverse().mapping)


def test_truth_index_outside_the_grid():
    inst = _instance(seed=1)
    grid = ambiguity_set_csi(inst, 0.3).grid
    # swap a label of community 1 with one of community 2
    ltv = list(inst.sealed_truth().inverse().mapping)
    ltv[0], ltv[3] = ltv[3], ltv[0]
    assert _truth_index(grid, Permutation(tuple(ltv)).inverse()) is None


def test_csi_set_canonical_order_and_container():
    inst = _instance(seed=2)
    s = ambiguity_set_csi(inst, eps=0.5)
    keys = [p.inverse().mapping for p in s]
    assert keys == sorted(keys)
    assert len(s) == len(keys)
    assert s.candidate_space == math.factorial(3) ** 2
    for p in s:
        assert p in s


def test_members_reverify_and_non_members_fail():
    inst = _instance(seed=4)
    eps = 0.3
    s = ambiguity_set_csi(inst, eps=eps)
    members = {p.mapping for p in s}
    for mapping in itertools.permutations(range(inst.n)):
        sigma = Permutation(mapping)
        if any(inst.comm1_of_label[sigma(v)] != inst.comm2_of_vertex[v]
               for v in range(inst.n)):
            continue
        assert (mapping in members) == _typical(inst, sigma, eps)


def test_restricted_is_subset_of_unrestricted():
    for seed in range(3):
        inst = _instance(seed=seed, sizes=(3, 2), joint=dsbs_joint(0.3))
        restricted = {p.mapping for p in ambiguity_set_csi(inst, eps=0.35)}
        unrestricted = unrestricted_csi_labelings(inst, eps=0.35)
        assert restricted <= {p.mapping for p in unrestricted}


def test_csi_subset_of_wsi():
    for seed in range(3):
        model, lay = homogeneous_model(dsbs_joint(0.2), (3, 2))
        pair = sample_pair(model, lay, seed)
        csi = anonymize(pair, "csi", shuffle_seed=seed)
        wsi = anonymize(pair, "wsi", shuffle_seed=seed)
        for eps in (0.2, 0.4):
            a = {p.mapping for p in ambiguity_set_csi(csi, eps=eps)}
            b = {p.mapping for p in ambiguity_set_wsi(wsi, eps=eps)}
            assert a <= b


def test_csi_equals_wsi_for_one_community():
    model = single_community(dsbs_joint(0.2))
    lay = CommunityLayout.contiguous((5,))
    for seed in range(3):
        pair = sample_pair(model, lay, seed)
        csi = anonymize(pair, "csi", shuffle_seed=seed)
        wsi = anonymize(pair, "wsi", shuffle_seed=seed)
        for eps in (0.25, 0.5):
            a = {p.mapping for p in ambiguity_set_csi(csi, eps=eps)}
            b = {p.mapping for p in ambiguity_set_wsi(wsi, eps=eps)}
            assert a == b


def _brute_wsi(inst, eps_list):
    # the scalar per-candidate loop: a labeling enters when some assignment of
    # the labels makes all blocks typical, with the vertex side's communities
    # the assignment read through the labeling; blocks are shared across eps
    n, c = inst.n, inst.c
    assignments = [tuple(m) for m in _all_assignments(inst).tolist()]
    found = {eps: set() for eps in eps_list}
    for ltv in itertools.permutations(range(n)):
        sigma = Permutation(ltv).inverse()
        pending = list(eps_list)
        for m1 in assignments:
            comm2 = tuple(m1[sigma.mapping[v]] for v in range(n))
            blocks = paired_blocks(inst.g1_values, m1, inst.g2_values, ltv, comm2, c)
            for eps in [e for e in pending if blocks_jointly_typical(blocks, inst.model.joint, e)]:
                found[eps].add(sigma.mapping)
                pending.remove(eps)
            if not pending:
                break
    return found


def _community_model(sizes):
    # a different edge density per community pair, so the block an
    # assignment puts a slot in changes its typicality
    c = len(sizes)
    joint = np.empty((c, c, 2, 2))
    for i, j in itertools.product(range(c), repeat=2):
        q = 0.2 + 0.6 * (i + j) / max(1, 2 * c - 2)
        a = q * (1 - q) / 2
        joint[i, j] = [[(1 - q) ** 2 + a, q * (1 - q) - a], [q * (1 - q) - a, q * q + a]]
    return PairedEdgeModel(joint), CommunityLayout.contiguous(sizes)


def _wsi_instance(sizes, model, seed):
    if model == "community":
        m, lay = _community_model(sizes)
    else:
        m, lay = homogeneous_model(copy_joint(3) if model == "copy3" else dsbs_joint(0.25), sizes)
    return anonymize(sample_pair(m, lay, seed), "wsi", shuffle_seed=seed)


def _all_assignments(inst):
    # the swept label-side assignments, straight from their definition
    labels = [i for i, k in enumerate(inst.sizes) for _ in range(k)]
    return np.asarray(sorted(set(itertools.permutations(labels))))


def _wsi_windows(inst, eps):
    # each block's slot count under the declared sizes and its count windows
    iu, ju = np.triu_indices(inst.c)
    k = np.asarray(inst.sizes)
    slots = np.where(iu == ju, k[iu] * (k[iu] - 1) // 2, k[iu] * k[ju])
    return (slots, *count_windows(inst.model.joint[iu, ju], eps, slots[:, None, None]))


def _counted_mask(inst, eps):
    # every labeling through the counting kernel, no margin verdicts
    _, lo, hi = _wsi_windows(inst, eps)
    return matcher._wsi_count(inst, _all_assignments(inst), np.arange(math.factorial(inst.n)),
                              lo, hi)


SMALL_EPS = (0.2, 0.3, 0.45, None)  # None: the default schedule


@pytest.mark.parametrize("sizes,model,seed,eps_list", [
    ((1, 3), "community", 2, SMALL_EPS),  # the intra block of community 1 has no slot
    ((1, 3), "copy3", 1, SMALL_EPS),
    ((2, 2), "community", 2, SMALL_EPS),
    ((1, 2, 2), "copy3", 1, SMALL_EPS),  # a (2, 2) copy3 sweep keeps all or none at any eps
    ((2, 3), "community", 1, SMALL_EPS),
    ((2, 3), "copy3", 1, SMALL_EPS),
    ((3, 3), "community", 1, (0.3, 0.45, None)),
    ((3, 3), "dsbs", 2, (0.3, 0.45, None)),
    ((2, 2, 2), "community", 0, (None,)),
    ((2, 1, 1, 1), "community", 0, (0.55, 0.65, None)),  # four communities, 10 blocks
])
def test_wsi_set_matches_scalar_loop(monkeypatch, sizes, model, seed, eps_list):
    inst = _wsi_instance(sizes, model, seed)
    n = inst.n
    eps_list = [default_epsilon(n) if e is None else e for e in eps_list]
    sizes_seen = set()
    want = _brute_wsi(inst, eps_list)
    for chunk in (matcher._WSI_CHUNK, 1 << 8):  # 1 << 8: several chunks per instance
        monkeypatch.setattr(matcher, "_WSI_CHUNK", chunk)
        for eps in eps_list:
            s = ambiguity_set_wsi(inst, eps=eps)
            assert {p.mapping for p in s} == want[eps], (chunk, eps)
            keys = [p.inverse().mapping for p in s]
            assert keys == sorted(keys)
            sizes_seen.add(len(s))
            # the counting kernel alone, over every labeling and assignment
            assert (_counted_mask(inst, eps) == s.grid.mask).all(), (chunk, eps)
    # every case keeps a proper, nonempty subset at some eps
    assert sizes_seen - {0, math.factorial(n)}


def _refuse_wsi_counting(monkeypatch):
    def refuse(*args):
        raise AssertionError("a labeling was counted")

    monkeypatch.setattr(matcher, "_wsi_count", refuse)


@pytest.mark.parametrize("sizes,seeds", [((3, 3), range(3)), ((4, 3), range(4))])
def test_default_schedule_wsi_is_decided_on_margins(monkeypatch, sizes, seeds):
    # dsbs(0.1) at the default eps: every assignment pair passes every block
    # or has a dead one, so no labeling reaches the counting kernel
    model, lay = homogeneous_model(dsbs_joint(0.1), sizes)
    n = sum(sizes)
    eps = default_epsilon(n)
    for seed in seeds:
        inst = anonymize(sample_pair(model, lay, seed), "wsi", shuffle_seed=seed)
        if n <= 6:
            want = np.zeros(math.factorial(n), dtype=bool)
            want[[_lex_rank(np.asarray(p.inverse().mapping))
                  for p in map(Permutation, _brute_wsi(inst, [eps])[eps])]] = True
        else:
            want = _counted_mask(inst, eps)
        with monkeypatch.context() as m:
            _refuse_wsi_counting(m)
            s = ambiguity_set_wsi(inst)
        assert (s.grid.mask == want).all(), seed


def _recording_wsi_count(monkeypatch):
    # the rows every _wsi_count call is given, in call order
    counted = []
    count = matcher._wsi_count

    def recording(inst, asg, rows, lo, hi):
        counted.append(rows.tolist())
        return count(inst, asg, rows, lo, hi)

    monkeypatch.setattr(matcher, "_wsi_count", recording)
    return counted


def test_no_passing_pair_counts_every_labeling(monkeypatch):
    # dsbs(0.1) (4,3) at eps 0.3: the 3-slot block passes every joint type
    # under no margins, so no pair passes, some pair is undecided and every
    # labeling is counted, in one call
    model, lay = homogeneous_model(dsbs_joint(0.1), (4, 3))
    inst = anonymize(sample_pair(model, lay, 2), "wsi", shuffle_seed=2)
    want = _counted_mask(inst, 0.3)
    counted = _recording_wsi_count(monkeypatch)
    assert (ambiguity_set_wsi(inst, eps=0.3).grid.mask == want).all()
    assert counted == [list(range(len(want)))]
    assert 0 < want.sum() < len(want)


@pytest.mark.parametrize("sizes", [(3, 2, 2), (2, 2, 2)])
def test_every_pair_dead_gives_empty_set_without_counting(monkeypatch, sizes):
    # dsbs(0.1) at eps 0.3: every assignment pair has a block whose margins
    # leave no typical count, so the set is empty and nothing is counted
    model, lay = homogeneous_model(dsbs_joint(0.1), sizes)
    inst = anonymize(sample_pair(model, lay, 0), "wsi", shuffle_seed=0)
    assert not _counted_mask(inst, 0.3).any()
    _refuse_wsi_counting(monkeypatch)
    s = ambiguity_set_wsi(inst, eps=0.3)
    assert len(s) == 0 and list(s) == [] and inst.sealed_truth() not in s
    assert s.candidate_space == math.factorial(inst.n) * len(_all_assignments(inst))
    with pytest.raises(EmptyAmbiguitySetError):
        run_matching(inst, eps=0.3)


def test_no_walk_builds_no_labeling_weights():
    # dsbs(0.1) (4,4) at eps 0.3: no assignment pair passes, so the walk takes
    # no step and its n! x n float64 weights (2.6 MB at n = 8) are never built
    model, lay = homogeneous_model(dsbs_joint(0.1), (4, 4))
    table = _perm_table(8)  # shared and cached, so built before tracing
    for seed in range(3):
        inst = anonymize(sample_pair(model, lay, seed), "wsi", shuffle_seed=seed)
        slots, lo, hi = _wsi_windows(inst, 0.3)
        passes, _ = next(matcher._wsi_pairs([inst], _all_assignments(inst), slots, lo, hi))
        assert not passes.any()
        tracemalloc.start()
        try:
            next(matcher._wsi_sets([inst], 0.3, DEFAULT_CANDIDATE_CAP))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.size * np.dtype(np.float64).itemsize, seed


def test_wsi_mixed_verdicts_match_scalar_loop(monkeypatch):
    # (3,3) community model at eps 0.45: some labelings meet a passing pair
    # and pass on the walk; some pair is undecided, so every other labeling
    # is counted (some of those pass, some do not)
    inst = _wsi_instance((3, 3), "community", 1)
    asg = _all_assignments(inst)
    passes, undecided = next(matcher._wsi_pairs([inst], asg, *_wsi_windows(inst, 0.45)))
    assert undecided
    # labeling r meets (m1, m2) with m2[ltv[u]] = m1[u]
    index = {tuple(m): k for k, m in enumerate(asg.tolist())}
    walked = np.zeros(math.factorial(inst.n), dtype=bool)
    for r, ltv in enumerate(itertools.permutations(range(inst.n))):
        for a, m1 in enumerate(asg):
            m2 = np.empty_like(m1)
            m2[list(ltv)] = m1
            walked[r] |= passes[a, index[tuple(m2.tolist())]]
    calls = _recording_wsi_count(monkeypatch)
    s = ambiguity_set_wsi(inst, eps=0.45)
    counted = [r for rows in calls for r in rows]
    mask = s.grid.mask
    was_counted = np.zeros_like(mask)
    was_counted[counted] = True
    assert len(counted) == was_counted.sum()  # each labeling counted once
    assert walked.any() and mask[walked].all()
    assert not (walked & was_counted).any()  # passed on the walk: never counted
    assert (walked | was_counted).all()  # left after the walk: counted
    assert (mask & was_counted).any() and (~mask & was_counted).any()
    assert {p.mapping for p in s} == _brute_wsi(inst, [0.45])[0.45]


@pytest.mark.parametrize("sizes", [(3, 3), (4, 3), (2, 2, 2), (2, 2, 1, 1)])
def test_wsi_chunk_matches_one_instance_at_a_time(monkeypatch, sizes):
    # one pair fold over a chunk's instances, in one group, in groups of 4
    # and one instance per group, gives each instance what its own
    # run_matching gives: the pick, its score and diagnostics, or the error
    model, lay = homogeneous_model(dsbs_joint(0.1), sizes)
    seeds = list(range(6))
    insts = [anonymize(sample_pair(model, lay, s), "wsi", shuffle_seed=s) for s in seeds]
    na = len(_all_assignments(insts[0]))
    outcomes = set()
    for eps in (0.2, 0.3, 0.45, 0.6, None):
        want = []
        for inst, seed in zip(insts, seeds):
            try:
                res = run_matching(inst, eps, seed)
            except EmptyAmbiguitySetError as e:
                want.append(str(e))
            else:
                want.append((res.labeling, res.accuracy,
                             dataclasses.replace(res.diagnostics, wall_time_ms=0.0)))
        outcomes |= {type(w) for w in want}
        for fold in (matcher._WSI_FOLD, 4 * na * na, 1):
            monkeypatch.setattr(matcher, "_WSI_FOLD", fold)
            got = [str(r) if isinstance(r, EmptyAmbiguitySetError) else
                   (r.labeling, r.accuracy, dataclasses.replace(r.diagnostics, wall_time_ms=0.0))
                   for r in matcher.match_instances(insts, eps, seeds)]
            assert got == want, (eps, fold)
    assert outcomes == {str, tuple}  # some sets empty, some not


def test_wsi_pair_fold_memory_is_bounded_by_its_groups():
    # the fold's bincount index (2 per instance, |A|, slots) and its verdicts
    # (instances, |A|, |A|) grow with the instances folded together; groups
    # keep 16 (2,2,1,1,1) instances (|A| = 1260) near the peak of one
    sizes = (2, 2, 1, 1, 1)
    model, lay = homogeneous_model(dsbs_joint(0.1), sizes)
    insts = [anonymize(sample_pair(model, lay, s), "wsi", shuffle_seed=s) for s in range(16)]
    asg = matcher._assignments(sizes)  # shared and cached, so built before tracing
    slots, lo, hi = _wsi_windows(insts[0], 0.3)
    peaks = []
    for chunk in (insts[:1], insts):
        tracemalloc.start()
        try:
            for _ in matcher._wsi_pairs(chunk, asg, slots, lo, hi):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_wsi_verdicts_match_counting_sampled():
    # the verdict walk against the counting kernel over every labeling and
    # assignment, at l = 2 and 3, with zero-slot blocks and with four
    # communities (180 assignments, 10 blocks)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from([(1, 3), (2, 2), (2, 3), (1, 1, 2), (1, 2, 2), (3, 2),
                                       (2, 2, 1, 1)]),
                      st.sampled_from(["community", "dsbs", "copy3"]),
                      st.integers(0, 40), st.integers(2, 16))
    @hypothesis.example((2, 2, 1, 1), "community", 0, 11)  # eps 0.55: 8 of 720 labelings
    @hypothesis.example((2, 2, 1, 1), "community", 1, 13)  # eps 0.65: 146 of 720
    def check(sizes, model, seed, e):
        inst = _wsi_instance(sizes, model, seed)
        got = ambiguity_set_wsi(inst, eps=e / 20).grid.mask
        want = _counted_mask(inst, e / 20)
        assert (got == want).all()

    check()


def test_assignments_are_shared_and_in_lex_order():
    asg = matcher._assignments((2, 0, 1))
    assert matcher._assignments((2, 0, 1)) is asg and not asg.flags.writeable
    assert asg.tolist() == [list(m) for m in sorted(set(itertools.permutations([0, 0, 2])))]
    assert matcher._assignments((0, 0)).shape == (1, 0)


def test_wsi_size_guard_comes_before_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("assignments were built")

    monkeypatch.setattr(matcher, "_assignments", refuse)
    inst = _instance(seed=0, sizes=(10, 10), mode="wsi")
    with pytest.raises(SizeGuardError, match="184756 assignments"):
        ambiguity_set_wsi(inst)


@pytest.mark.parametrize("sizes,model,seed,eps", [
    ((2, 3), "community", 1, 0.45),
    ((3, 3), "community", 1, 0.3),
    ((3, 3), "dsbs", 2, 0.45),
    ((4, 3), "community", 0, 0.3),
    ((2, 2, 2), "copy3", 1, None),
])
def test_wsi_run_matching_selects_from_the_set(sizes, model, seed, eps):
    inst = _wsi_instance(sizes, model, seed)
    s = ambiguity_set_wsi(inst, eps=eps)
    assert 0 < len(s) < math.factorial(inst.n)
    truth = inst.sealed_truth()
    for pick in range(4):
        res = run_matching(inst, eps=eps, seed=pick)
        assert res.labeling == select_labeling(s, seed=pick)
        assert res.diagnostics.ambiguity_size == len(s)
        assert res.diagnostics.candidate_space == s.candidate_space
        assert res.diagnostics.truth_included == (truth in s)
        assert res.accuracy == inst.score(res.labeling)


def test_candidate_cap_guard():
    inst = _instance(seed=0)
    with pytest.raises(SizeGuardError):
        ambiguity_set_csi(inst, eps=0.3, cap=10)
    with pytest.raises(SizeGuardError):
        ambiguity_set_wsi(_instance(seed=0, mode="wsi"), eps=0.3, cap=10)


def _moved_vertex(inst):
    """inst with one vertex moved from community 0 to community 1 on the
    vertex side only, so the two sides' community sizes differ."""
    comm2 = list(inst.comm2_of_vertex)
    comm2[comm2.index(0)] = 1
    return dataclasses.replace(inst, comm2_of_vertex=tuple(comm2))


# csi jobs refused before any set exists: name -> (instance, cap, error, message)
CSI_REFUSALS = {
    "no-maps": (lambda: dataclasses.replace(_instance(0, mode="wsi"), mode="csi"),
                DEFAULT_CANDIDATE_CAP, ParameterError,
                "csi matching needs community maps on both sides"),
    "sizes-differ": (lambda: _moved_vertex(_instance(0)), DEFAULT_CANDIDATE_CAP,
                     ParameterError, "community 1 sizes differ between sides"),
    "cap": (lambda: _instance(0), 35, SizeGuardError, "36 candidate labelings exceed cap 35"),
}


@pytest.mark.parametrize("name", sorted(CSI_REFUSALS))
def test_csi_refusals_keep_their_type_and_message(name):
    make, cap, error, message = CSI_REFUSALS[name]
    inst = make()
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ambiguity_set_csi(inst, 0.3, cap)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        run_matching(inst, 0.3, 0, cap)


def test_csi_set_of_a_wsi_instance_is_refused():
    with pytest.raises(ParameterError, match="^csi matching needs community maps on both sides$"):
        ambiguity_set_csi(_instance(0, mode="wsi"), 0.3)


@pytest.mark.parametrize("mode, cap, error, message", [
    ("csi", DEFAULT_CANDIDATE_CAP, ParameterError, "community 1 sizes differ between sides"),
    ("wsi", 100, SizeGuardError, "720 candidates x 20 assignments exceed cap 100"),
], ids=["csi", "wsi"])
def test_a_refusal_refuses_the_whole_chunk(mode, cap, error, message):
    # one csi instance whose sides' sizes differ, or a wsi chunk over the
    # cap: the call raises the error once and gives no instance a result
    model, lay = homogeneous_model(dsbs_joint(0.2), (3, 3))
    insts = [anonymize(sample_pair(model, lay, s), mode, shuffle_seed=s) for s in range(3)]
    if mode == "csi":
        insts[1] = _moved_vertex(insts[1])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        matcher.match_instances(insts, 0.3, [0, 1, 2], cap)


def test_everything_typical_at_eps_one():
    inst = _instance(seed=6)
    s = ambiguity_set_csi(inst, eps=1.0)
    assert len(s) == s.candidate_space == 36


def test_default_eps_comes_from_schedule():
    inst = _instance(seed=6)
    s = ambiguity_set_csi(inst)
    assert s.eps == default_epsilon(inst.n)
    res = run_matching(inst, seed=1)
    assert res.diagnostics.eps == default_epsilon(inst.n)


def test_select_labeling_is_deterministic():
    inst = _instance(seed=3)
    s = ambiguity_set_csi(inst, eps=1.0)
    assert len(s) > 1
    picks = {select_labeling(s, seed=17).mapping for _ in range(3)}
    assert len(picks) == 1
    assert select_labeling(s, seed=17) in s
    # different seeds eventually pick different members
    assert len({select_labeling(s, seed=k).mapping for k in range(20)}) > 1


def _one_axis_set(n, mask):
    # a one-axis grid over all n! labelings, the shape of a wsi set
    everyone = np.arange(n)
    grid = _Grid(labels_of=[everyone], verts_of=[everyone], perms=[_perm_table(n)],
                 ranks=[None], mask=np.asarray(mask, dtype=bool))
    return AmbiguitySet(grid, eps=0.1, mode="wsi", candidate_space=len(mask))


def test_select_from_singleton_and_empty():
    only = Permutation((1, 0))
    s = _one_axis_set(2, [False, True])
    assert select_labeling(s, seed=99) == only
    empty = _one_axis_set(2, [False, False])
    with pytest.raises(EmptyAmbiguitySetError):
        select_labeling(empty, seed=0)


def _random_mask_set(sizes, membership, seed):
    # a real csi grid (or a one-axis n = 5 grid) with a seeded random mask
    rng = np.random.default_rng(seed)
    if sizes is None:
        return _one_axis_set(5, rng.random(120) < 0.3)
    grid = ambiguity_set_csi(_instance(seed, sizes=sizes, membership=membership), 1.0).grid
    grid = dataclasses.replace(grid, mask=rng.random(_mask(grid).shape) < 0.3)
    return AmbiguitySet(grid, 1.0, "csi", grid.mask.size)


@pytest.mark.parametrize("sizes,membership", [
    ((2, 3), None),
    ((2, 3), (0, 1, 1, 0, 1)),
    ((3, 3), None),
    ((3, 3), (0, 1, 0, 1, 0, 1)),
    ((2, 2, 2), None),
    ((2, 2, 2), (2, 0, 1, 0, 1, 2)),
    (None, None),  # one axis, n = 5
])
@pytest.mark.parametrize("seed", range(3))
def test_member_at_equals_sorted_iteration(monkeypatch, sizes, membership, seed):
    monkeypatch.setattr(matcher, "_SET_CHUNK", 5)  # many chunks per grid
    s = _random_mask_set(sizes, membership, seed)
    grid = s.grid
    members = list(s)
    assert 0 < len(s) == len(members) < grid.mask.size
    assert [matcher._member_at(grid, k, len(s)) for k in range(len(s))] == members
    keys = [p.inverse().mapping for p in members]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    cells = np.argwhere(grid.mask)
    assert {p.mapping for p in members} == {_labeling_at(grid, tuple(c)).mapping for c in cells}
    assert all(p in s for p in members)
    outside = np.argwhere(~grid.mask)
    pick = outside[np.random.default_rng(seed).integers(len(outside))]
    assert _labeling_at(grid, tuple(pick)) not in s
    if sizes is not None:
        # swap the first labels of two communities: not community-preserving
        ltv = list(members[0].inverse().mapping)
        a, b = grid.labels_of[0][0], grid.labels_of[1][0]
        ltv[a], ltv[b] = ltv[b], ltv[a]
        assert Permutation(tuple(ltv)).inverse() not in s


def test_member_at_on_a_full_grid_is_the_cell(monkeypatch):
    monkeypatch.setattr(matcher, "_SET_CHUNK", 5)
    s = ambiguity_set_csi(_instance(seed=2, sizes=(2, 3)), eps=1.0)
    members = list(s)
    assert len(members) == _mask(s.grid).size == 12
    partial = dataclasses.replace(s.grid, mask=_mask(s.grid).copy())
    partial.mask[0, 0] = False  # one survivor short: found by halving
    for k, member in enumerate(members):
        assert matcher._member_at(s.grid, k, len(s)) == member
        if k:
            assert matcher._member_at(partial, k - 1, len(s) - 1) == member


def test_run_matching_counts_survivors_once(monkeypatch):
    inst = _instance(seed=5, sizes=(4, 4), joint=dsbs_joint(0.1))
    grids, counts = [], []
    csi_sets, count_nonzero = matcher._csi_sets, np.count_nonzero

    def building(*args):
        for s in csi_sets(*args):
            grids.append(s.grid)
            yield s

    def counting(a, *args, **kwargs):
        counts.append(np.size(a))
        return count_nonzero(a, *args, **kwargs)

    monkeypatch.setattr(matcher, "_csi_sets", building)
    monkeypatch.setattr(np, "count_nonzero", counting)
    for eps, product in ((1.0, True), (0.3, False)):  # a full grid, then a pruned partial one
        grids.clear()
        counts.clear()
        res = run_matching(inst, eps=eps, seed=3)
        (grid,) = grids
        assert (grid.mask is None) == product, eps
        # a product grid counts nothing, and a masked grid counts once
        assert counts.count(_mask(grid).size) == (0 if product else 1), eps
        assert 0 < res.diagnostics.ambiguity_size <= _mask(grid).size
        assert res.diagnostics.candidate_space == math.factorial(4) ** 2
    assert _mask(grid).size < math.factorial(4) ** 2
    assert res.diagnostics.ambiguity_size < _mask(grid).size


def test_len_in_and_select_decode_at_most_one_row(monkeypatch):
    decoded = []
    decode, decode_cell = matcher._decode, matcher._decode_cell

    def counting(rows):
        decoded.append(len(rows))
        return decode(rows)

    def counting_cell(grid, cell):
        decoded.append(1)
        return decode_cell(grid, cell)

    monkeypatch.setattr(matcher, "_decode", counting)
    monkeypatch.setattr(matcher, "_decode_cell", counting_cell)
    inst = _instance(seed=5, sizes=(4, 4), membership=(0, 1, 0, 1, 0, 1, 0, 1))
    s = ambiguity_set_csi(inst, eps=1.0)
    assert len(s) == math.factorial(4) ** 2
    assert decoded == []
    assert inst.sealed_truth() in s
    assert decoded == []
    select_labeling(s, seed=3)
    assert decoded == [1]


# -- product grids ----------------------------------------------------------------

PRODUCT_LAYOUTS = [
    ((2, 3), None),
    ((2, 3), (0, 1, 1, 0, 1)),
    ((3, 3), None),
    ((3, 3), (0, 1, 0, 1, 0, 1)),
    ((2, 2, 2), None),
    ((2, 2, 2), (0, 1, 2, 0, 1, 2)),
]


def _product_grid(sizes, membership, cut):
    """The eps = 1 grid of a dsbs(0.2) instance, a product grid, with axes cut
    to some of their lex ranks as an intra block would: cut "full" keeps every
    axis whole, "cut" keeps the odd ranks of axis 0, "cut-all" those of every
    axis, and "empty" keeps nothing on the last axis."""
    grid = ambiguity_set_csi(_instance(2, sizes=sizes, membership=membership), 1.0).grid
    assert grid.mask is None and grid.ranks == [None] * len(sizes)
    keep = {"full": [None] * len(sizes),
            "cut": [range(1, math.factorial(sizes[0]), 2)] + [None] * (len(sizes) - 1),
            "cut-all": [range(1, math.factorial(k), 2) for k in sizes],
            "empty": [None] * (len(sizes) - 1) + [[]]}[cut]
    ranks = [None if r is None else np.asarray(r, dtype=np.intp) for r in keep]
    perms = [_perm_table(k) if r is None else _perm_table(k)[r] for k, r in zip(sizes, ranks)]
    return dataclasses.replace(grid, perms=perms, ranks=ranks)


@pytest.mark.parametrize("sizes,membership", PRODUCT_LAYOUTS)
@pytest.mark.parametrize("cut", ["full", "cut", "cut-all", "empty"])
def test_product_grid_set_equals_its_materialized_mask(sizes, membership, cut):
    grid = _product_grid(sizes, membership, cut)
    space = math.prod(math.factorial(k) for k in sizes)
    product = AmbiguitySet(grid, 1.0, "csi", space)
    masked = AmbiguitySet(dataclasses.replace(grid, mask=_mask(grid)), 1.0, "csi", space)
    assert len(product) == len(masked) == math.prod(len(p) for p in grid.perms)
    assert (len(product) == 0) == (cut == "empty")
    inst = _instance(2, sizes=sizes, membership=membership)
    inside = [sigma in masked for sigma in _preserving(inst)]
    assert [sigma in product for sigma in _preserving(inst)] == inside
    assert sum(inside) == len(masked)
    members = list(masked)
    assert list(product) == members
    assert [matcher._member_at(product.grid, k, len(product))
            for k in range(len(product))] == members


@pytest.mark.parametrize("sizes,membership", [((3, 3), None), ((3, 3), (0, 1, 0, 1, 0, 1)),
                                              ((2, 2, 2), None), ((2, 2, 2), (0, 1, 2, 0, 1, 2))])
@pytest.mark.parametrize("cut", ["full", "cut", "cut-all"])
def test_truth_index_equals_brute_force_lookup(sizes, membership, cut):
    # every cell decoded by the array path, then every one of the 720
    # labelings of n = 6 looked up among them
    grid = _product_grid(sizes, membership, cut)
    cells = {_labeling_at(grid, tuple(c)): tuple(c) for c in np.argwhere(_mask(grid))}
    assert len(cells) == math.prod(len(p) for p in grid.perms)
    for mapping in itertools.permutations(range(6)):
        sigma = Permutation(mapping)
        assert _truth_index(grid, sigma) == cells.get(sigma), mapping


def test_default_schedule_copy_66_builds_no_mask():
    # every block passes on its margins: the (6,6) grid is the product of
    # its two 720-row axes, and no 518,400-cell mask is allocated
    inst = _instance(seed=0, sizes=(6, 6), joint=copy_joint(2))
    want = run_matching(inst, seed=11)  # warms the shared tables
    assert ambiguity_set_csi(inst, default_epsilon(12)).grid.mask is None
    tracemalloc.start()
    try:
        res = run_matching(inst, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.labeling == want.labeling
    assert res.diagnostics.ambiguity_size == math.factorial(6) ** 2
    assert peak < math.factorial(6) ** 2, peak


@pytest.mark.parametrize("mode", ["csi", "wsi"])
def test_run_matching_consistent_with_set_plus_select(mode):
    inst = _instance(seed=8, sizes=(3, 2), mode=mode)
    eps = 0.6
    res = run_matching(inst, eps=eps, seed=5)
    build = ambiguity_set_csi if mode == "csi" else ambiguity_set_wsi
    s = build(inst, eps=eps)
    assert res.labeling == select_labeling(s, seed=5)
    assert res.diagnostics.ambiguity_size == len(s)
    assert res.diagnostics.candidate_space == s.candidate_space
    assert res.accuracy == inst.score(res.labeling)
    assert res.diagnostics.mode == mode
    assert res.diagnostics.wall_time_ms >= 0.0


def test_run_matching_non_contiguous_communities():
    inst = _instance(seed=12, sizes=(3, 3), membership=(0, 1, 0, 1, 1, 0))
    eps = 0.5
    res = run_matching(inst, eps=eps, seed=2)
    s = ambiguity_set_csi(inst, eps=eps)
    assert res.labeling == select_labeling(s, seed=2)
    assert {p.mapping for p in s} == _brute_csi(inst, eps)


def test_run_matching_non_contiguous_picks_in_canonical_order():
    inst = _instance(seed=5, sizes=(4, 4), membership=(0, 1, 0, 1, 0, 1, 0, 1))
    s = ambiguity_set_csi(inst, eps=1.0)
    assert len(s) == math.factorial(4) ** 2
    keys = [p.inverse().mapping for p in s]
    assert keys == sorted(keys)
    for pick in range(6):
        res = run_matching(inst, eps=1.0, seed=pick)
        assert res.labeling == select_labeling(s, seed=pick)
        assert res.diagnostics.ambiguity_size == len(s)
        assert res.diagnostics.truth_included


def test_truth_included_iff_truth_typical():
    for seed in range(6):
        inst = _instance(seed=seed, joint=dsbs_joint(0.25))
        truth = inst.sealed_truth()
        for eps in (0.2, 0.4, 0.8):
            expected = _typical(inst, truth, eps)
            s = ambiguity_set_csi(inst, eps=eps)
            assert (truth in s) == expected
            if len(s):
                res = run_matching(inst, eps=eps, seed=0)
                assert res.diagnostics.truth_included == expected


def test_run_matching_empty_set_raises():
    # at eps=0.05 a 3-slot intra block needs count/3 within 0.05 of 0.5,
    # which no integer count satisfies, so the csi set is empty
    model, lay = homogeneous_model(copy_joint(2), (3, 3))
    for seed in range(20):
        pair = sample_pair(model, lay, seed)
        cand = anonymize(pair, "csi", shuffle_seed=seed)
        s = ambiguity_set_csi(cand, eps=0.05)
        if len(s) == 0:
            with pytest.raises(EmptyAmbiguitySetError):
                run_matching(cand, eps=0.05, seed=0)
            return
    pytest.skip("no empty ambiguity set found in seed range")
