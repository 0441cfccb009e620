import dataclasses
import itertools
import math

import numpy as np
import pytest

from commatch import matcher
from commatch.errors import EmptyAmbiguitySetError, ParameterError, SizeGuardError
from commatch.graphgen import anonymize, sample_pair
from commatch.matcher import (
    DEFAULT_CANDIDATE_CAP,
    AmbiguitySet,
    _block_windows,
    _csi_grid,
    _Grid,
    _lex_rank,
    _onehot_table,
    _perm_table,
    _truth_index,
    ambiguity_set_csi,
    ambiguity_set_wsi,
    run_matching,
    select_labeling,
)
from commatch.model import (
    CommunityLayout,
    EdgeAlphabet,
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


@pytest.mark.parametrize("sizes", [(5, 5), (6, 6)])
@pytest.mark.parametrize("joint", [copy_joint(2), dsbs_joint(0.1)], ids=["copy", "dsbs"])
def test_csi_grid_sample_matches_scalar_test(sizes, joint):
    # labelings drawn uniformly from the whole community-preserving space by
    # per-community lex ranks, decoded on the eps = 1 grid, which keeps every
    # row; at each eps the set's grid may keep fewer
    inst = _instance(seed=3, sizes=sizes, joint=joint)
    full = _csi_grid(inst, 1.0, DEFAULT_CANDIDATE_CAP)
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
    grid = _csi_grid(inst, 0.3, DEFAULT_CANDIDATE_CAP)
    rng = np.random.default_rng(7)
    on_boundary = 0
    for _ in range(300):
        idx = tuple(int(rng.integers(len(p))) for p in grid.perms)
        blocks = _blocks(inst, _labeling_at(grid, idx))
        typical = blocks_jointly_typical(blocks, inst.model.joint, 0.3)
        assert grid.mask[idx] == typical
        counts = joint_type(*blocks.blocks[(0, 1)], shape=(2, 2)).counts
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


@pytest.mark.parametrize("l, joints, max_slots", [(2, L2_JOINTS, 12), (3, [copy_joint(3)], 5)],
                         ids=["l2", "copy3"])
def test_can_pass_all_matches_joint_types(l, joints, max_slots):
    # some pair of margins makes every joint type with them pass exactly when
    # _can_pass_all says so
    for slots in range(max_slots + 1):
        tables = _tables(l, slots)
        margins = np.hstack([tables.sum(axis=2), tables.sum(axis=1)])
        group = np.unique(margins, axis=0, return_inverse=True)[1].ravel()
        for p in joints:
            for eps in [e / 20 for e in range(1, 21)]:
                passes = _passes(p, eps, tables)
                want = any(passes[group == g].all() for g in np.unique(group))
                got = matcher._can_pass_all(np.asarray(p, dtype=float).tobytes(), l, eps, slots)
                assert got == want, (slots, eps)


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
                               *_blocks(inst, inst.sealed_truth()).blocks[(i, j)])[2][0]]
    assert dead
    _refuse_counting(monkeypatch)
    s = ambiguity_set_csi(inst, eps=0.3)
    assert s.grid.mask.shape == (0, 0, 0, 0) and not s.grid.mask.any()  # no axis keeps a row
    assert s.candidate_space == 6 ** 4 and len(s) == 0
    assert not _typical(inst, inst.sealed_truth(), 0.3)
    assert inst.sealed_truth() not in s


# -- prune-then-pair --------------------------------------------------------------

def _intra_survivors(inst, eps, i):
    """Lex ranks of the permutations of community i whose intra block is
    typical, each tried in a labeling that keeps the other communities fixed."""
    full = _csi_grid(inst, 1.0, DEFAULT_CANDIDATE_CAP)
    keep = []
    for r in range(len(full.perms[i])):
        sigma = _labeling_at(full, tuple(r if ax == i else 0 for ax in range(inst.c)))
        if is_jointly_typical(*_blocks(inst, sigma).blocks[(i, i)], inst.model.joint[i, i], eps):
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
    assert s.grid.mask.shape == tuple(len(k) for k in kept)
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
    assert len(s) == 0 and list(s) == [] and s.grid.mask.shape[1] == 0
    assert s.candidate_space == math.factorial(5) ** 2
    assert inst.sealed_truth() not in s
    with pytest.raises(EmptyAmbiguitySetError):
        run_matching(inst, eps=0.15)


def test_labelings_failing_an_intra_block_are_not_in_the_set():
    inst = _instance(seed=3, sizes=(6, 6), joint=dsbs_joint(0.1))
    s = ambiguity_set_csi(inst, eps=0.3)
    full = _csi_grid(inst, 1.0, DEFAULT_CANDIDATE_CAP)
    kept = s.grid.ranks[0].tolist()
    other = int(s.grid.ranks[1][0])  # a survivor of community 2
    assert 0 < len(kept) < 720
    for r in range(720):
        sigma = _labeling_at(full, (r, other))
        if r in kept:
            assert _truth_index(s.grid, sigma) == (kept.index(r), 0)
        else:
            x, y = _blocks(inst, sigma).blocks[(0, 0)]
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
    model = PairedEdgeModel(alphabet=model.alphabet, joint=joint)
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


def test_truth_index_outside_the_grid():
    inst = _instance(seed=1)
    grid = _csi_grid(inst, 0.3, DEFAULT_CANDIDATE_CAP)
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


def _brute_wsi(inst, eps_list, full_sweep=False):
    # the scalar per-candidate loop: a labeling enters when some assignment of
    # the labels makes all blocks typical, with the vertex side's communities
    # the assignment read through the labeling; blocks are shared across eps
    n, c = inst.n, inst.c
    if full_sweep:
        assignments = list(itertools.product(range(c), repeat=n))
    else:
        labels = [i for i, k in enumerate(inst.sizes) for _ in range(k)]
        assignments = sorted(set(itertools.permutations(labels)))
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
    return PairedEdgeModel(alphabet=EdgeAlphabet(2), joint=joint), CommunityLayout.contiguous(sizes)


def _wsi_instance(sizes, model, seed):
    if model == "community":
        m, lay = _community_model(sizes)
    else:
        m, lay = homogeneous_model(copy_joint(3) if model == "copy3" else dsbs_joint(0.25), sizes)
    return anonymize(sample_pair(m, lay, seed), "wsi", shuffle_seed=seed)


def _all_assignments(inst, full_sweep):
    # the swept label-side assignments, straight from their definition
    if full_sweep:
        return np.asarray(list(itertools.product(range(inst.c), repeat=inst.n)))
    labels = [i for i, k in enumerate(inst.sizes) for _ in range(k)]
    return np.asarray(sorted(set(itertools.permutations(labels))))


def _counted_mask(inst, eps, asg):
    # every labeling through the counting kernel, no margin verdicts
    return matcher._wsi_count(inst, eps, asg, np.arange(math.factorial(inst.n)))


SMALL_EPS = (0.2, 0.3, 0.45, None)  # None: the default schedule


@pytest.mark.parametrize("sizes,model,seed,eps_list", [
    ((1, 3), "community", 2, SMALL_EPS),  # the intra block of community 1 has no slot
    ((1, 3), "copy3", 1, SMALL_EPS),
    ((2, 2), "community", 2, SMALL_EPS),
    ((2, 2), "copy3", 1, SMALL_EPS),
    ((2, 3), "community", 1, SMALL_EPS),
    ((2, 3), "copy3", 1, SMALL_EPS),
    ((3, 3), "community", 1, (0.3, 0.45, None)),
    ((3, 3), "dsbs", 2, (0.3, 0.45, None)),
    ((2, 2, 2), "community", 0, (None,)),
])
def test_wsi_set_matches_scalar_loop(monkeypatch, sizes, model, seed, eps_list):
    inst = _wsi_instance(sizes, model, seed)
    n = inst.n
    eps_list = [default_epsilon(n) if e is None else e for e in eps_list]
    sizes_seen = set()
    for full_sweep in ([False, True] if n <= 5 else [False]):
        want = _brute_wsi(inst, eps_list, full_sweep)
        asg = _all_assignments(inst, full_sweep)
        for chunk in (matcher._WSI_CHUNK, 1 << 8):  # 1 << 8: several chunks per instance
            monkeypatch.setattr(matcher, "_WSI_CHUNK", chunk)
            for eps in eps_list:
                s = ambiguity_set_wsi(inst, eps=eps, full_sweep=full_sweep)
                assert {p.mapping for p in s} == want[eps], (full_sweep, chunk, eps)
                keys = [p.inverse().mapping for p in s]
                assert keys == sorted(keys)
                sizes_seen.add(len(s))
                # the counting kernel alone, over every labeling and assignment
                assert (_counted_mask(inst, eps, asg) == s.grid.mask).all(), (full_sweep, chunk, eps)
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
            want = _counted_mask(inst, eps, _all_assignments(inst, False))
        with monkeypatch.context() as m:
            _refuse_wsi_counting(m)
            s = ambiguity_set_wsi(inst)
        assert (s.grid.mask == want).all(), seed


def test_tight_eps_skips_the_verdict_fold(monkeypatch):
    # dsbs(0.1) (4,3) at eps 0.3: the 3-slot block passes every joint type
    # under no margins, so no pair passes and every labeling is counted
    model, lay = homogeneous_model(dsbs_joint(0.1), (4, 3))
    inst = anonymize(sample_pair(model, lay, 2), "wsi", shuffle_seed=2)
    want = _counted_mask(inst, 0.3, _all_assignments(inst, False))

    def refuse(*args):
        raise AssertionError("margins were folded")

    monkeypatch.setattr(matcher, "_block_totals", refuse)
    assert (ambiguity_set_wsi(inst, eps=0.3).grid.mask == want).all()
    assert 0 < want.sum() < len(want)


def test_wsi_mixed_verdicts_match_scalar_loop(monkeypatch):
    # (3,3) community model at eps 0.45: some labelings meet a passing pair,
    # some meet only undecided and dead pairs and are counted (some of those
    # pass), and the rest meet dead pairs only
    inst = _wsi_instance((3, 3), "community", 1)
    counted = []
    count = matcher._wsi_count

    def recording(inst, eps, asg, rows):
        counted.extend(rows.tolist())
        return count(inst, eps, asg, rows)

    monkeypatch.setattr(matcher, "_wsi_count", recording)
    s = ambiguity_set_wsi(inst, eps=0.45)
    mask = s.grid.mask
    was_counted = np.zeros_like(mask)
    was_counted[counted] = True
    assert len(counted) == was_counted.sum()  # each labeling counted once
    assert (mask & ~was_counted).any()  # passed on verdicts
    assert (mask & was_counted).any() and (~mask & was_counted).any()
    assert (~mask & ~was_counted).any()  # dead on verdicts
    assert {p.mapping for p in s} == _brute_wsi(inst, [0.45])[0.45]


def test_wsi_verdicts_match_counting_sampled():
    # the verdict walk against the counting kernel over every labeling and
    # assignment, at l = 2 and 3, with full sweeps and zero-slot blocks
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from([(1, 3), (2, 2), (2, 3), (1, 1, 2), (1, 2, 2), (3, 2)]),
                      st.sampled_from(["community", "dsbs", "copy3"]),
                      st.integers(0, 40), st.integers(2, 16), st.booleans())
    def check(sizes, model, seed, e, full_sweep):
        inst = _wsi_instance(sizes, model, seed)
        got = ambiguity_set_wsi(inst, eps=e / 20, full_sweep=full_sweep).grid.mask
        want = _counted_mask(inst, e / 20, _all_assignments(inst, full_sweep))
        assert (got == want).all()

    check()


def test_assignments_are_shared_and_in_lex_order():
    asg = matcher._assignments((2, 0, 1))
    assert matcher._assignments((2, 0, 1)) is asg and not asg.flags.writeable
    assert asg.tolist() == [list(m) for m in sorted(set(itertools.permutations([0, 0, 2])))]
    assert matcher._assignments((0, 0)).shape == (1, 0)


def test_wsi_profiles_cover_the_full_sweep():
    inst = _instance(seed=0, sizes=(2, 2, 1), mode="wsi")
    profiles, total = matcher._wsi_profiles(inst, True, DEFAULT_CANDIDATE_CAP)
    assert total == math.factorial(5) * 3 ** 5
    assert sum(len(matcher._assignments(p)) for p in profiles) == 3 ** 5
    assert len(set(profiles)) == len(profiles) and (0, 0, 5) in profiles
    sized, total = matcher._wsi_profiles(inst, False, DEFAULT_CANDIDATE_CAP)
    assert sized == [(2, 2, 1)] and total == math.factorial(5) * 30


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


def test_wsi_full_sweep_is_superset():
    inst = _instance(seed=1, sizes=(2, 2), mode="wsi")
    sized = {p.mapping for p in ambiguity_set_wsi(inst, eps=0.3)}
    swept = {p.mapping for p in ambiguity_set_wsi(inst, eps=0.3, full_sweep=True)}
    assert sized <= swept


def test_wsi_full_sweep_guard():
    inst = _instance(seed=1, sizes=(5, 4), mode="wsi")
    with pytest.raises(SizeGuardError):
        ambiguity_set_wsi(inst, eps=0.3, full_sweep=True)


def test_candidate_cap_guard():
    inst = _instance(seed=0)
    with pytest.raises(SizeGuardError):
        ambiguity_set_csi(inst, eps=0.3, cap=10)
    with pytest.raises(SizeGuardError):
        ambiguity_set_wsi(_instance(seed=0, mode="wsi"), eps=0.3, cap=10)


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
    grid = _csi_grid(_instance(seed, sizes=sizes, membership=membership), 1.0,
                     DEFAULT_CANDIDATE_CAP)
    grid = dataclasses.replace(grid, mask=rng.random(grid.mask.shape) < 0.3)
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
    assert len(members) == s.grid.mask.size == 12
    partial = dataclasses.replace(s.grid, mask=s.grid.mask.copy())
    partial.mask[0, 0] = False  # one survivor short: found by halving
    for k, member in enumerate(members):
        assert matcher._member_at(s.grid, k, len(s)) == member
        if k:
            assert matcher._member_at(partial, k - 1, len(s) - 1) == member


def test_run_matching_counts_survivors_once(monkeypatch):
    inst = _instance(seed=5, sizes=(4, 4), joint=dsbs_joint(0.1))
    grids, counts = [], []
    csi_grid, count_nonzero = matcher._csi_grid, np.count_nonzero

    def building(*args):
        grids.append(csi_grid(*args))
        return grids[-1]

    def counting(a, *args, **kwargs):
        counts.append(np.size(a))
        return count_nonzero(a, *args, **kwargs)

    monkeypatch.setattr(matcher, "_csi_grid", building)
    monkeypatch.setattr(np, "count_nonzero", counting)
    for eps in (1.0, 0.3):  # a full grid, then a pruned partial one
        grids.clear()
        counts.clear()
        res = run_matching(inst, eps=eps, seed=3)
        (grid,) = grids
        assert counts.count(grid.mask.size) == 1, eps
        assert 0 < res.diagnostics.ambiguity_size <= grid.mask.size
        assert res.diagnostics.candidate_space == math.factorial(4) ** 2
    assert grid.mask.size < math.factorial(4) ** 2
    assert res.diagnostics.ambiguity_size < grid.mask.size


def test_len_in_and_select_decode_at_most_one_row(monkeypatch):
    decoded = []
    decode = matcher._decode

    def counting(rows):
        decoded.append(len(rows))
        return decode(rows)

    monkeypatch.setattr(matcher, "_decode", counting)
    inst = _instance(seed=5, sizes=(4, 4), membership=(0, 1, 0, 1, 0, 1, 0, 1))
    s = ambiguity_set_csi(inst, eps=1.0)
    assert len(s) == math.factorial(4) ** 2
    assert decoded == []
    assert inst.sealed_truth() in s
    assert decoded == []
    select_labeling(s, seed=3)
    assert decoded == [1]


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
