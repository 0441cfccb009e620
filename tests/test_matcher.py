import itertools
import math

import numpy as np
import pytest

from commatch.errors import EmptyAmbiguitySetError, ParameterError, SizeGuardError
from commatch.graphgen import anonymize, sample_pair
from commatch.matcher import (
    DEFAULT_CANDIDATE_CAP,
    AmbiguitySet,
    _csi_grid,
    _labeling_at,
    _perm_tables,
    _truth_index,
    ambiguity_set_csi,
    ambiguity_set_wsi,
    run_matching,
    select_labeling,
)
from commatch.model import (
    CommunityLayout,
    copy_joint,
    dsbs_joint,
    homogeneous_model,
    single_community,
)
from commatch.permutation import Permutation
from commatch.typicality import (
    blocks_jointly_typical,
    default_epsilon,
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
@pytest.mark.parametrize("joint", [copy_joint(2), dsbs_joint(0.25)], ids=["copy", "dsbs"])
def test_csi_full_grid_matches_scalar_test(sizes, joint):
    # unequal community sizes exercise the one-hot/kron index layout of the
    # inter masks
    inst = _instance(seed=5, sizes=sizes, joint=joint)
    cands = [(sigma.mapping, _blocks(inst, sigma)) for sigma in _preserving(inst)]
    assert len(cands) == math.prod(math.factorial(k) for k in sizes)
    for eps in EPS_GRID:
        want = {m for m, b in cands if blocks_jointly_typical(b, inst.model.joint, eps)}
        assert {p.mapping for p in ambiguity_set_csi(inst, eps=eps)} == want, eps


@pytest.mark.parametrize("sizes", [(5, 5), (6, 6)])
@pytest.mark.parametrize("joint", [copy_joint(2), dsbs_joint(0.1)], ids=["copy", "dsbs"])
def test_csi_grid_sample_matches_scalar_test(sizes, joint):
    inst = _instance(seed=3, sizes=sizes, joint=joint)
    grid = _csi_grid(inst, 0.3, DEFAULT_CANDIDATE_CAP)
    rng = np.random.default_rng(sum(sizes))
    sample = {tuple(int(rng.integers(len(p))) for p in grid.perms) for _ in range(80)}
    cells = []
    for idx in sorted(sample):
        sigma = _labeling_at(grid, idx)
        assert _truth_index(grid, sigma) == idx
        cells.append((idx, _blocks(inst, sigma)))
    for eps in EPS_GRID:
        mask = _csi_grid(inst, eps, DEFAULT_CANDIDATE_CAP).mask
        for idx, blocks in cells:
            assert mask[idx] == blocks_jointly_typical(blocks, inst.model.joint, eps), (idx, eps)


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


def test_perm_tables_are_shared_and_read_only():
    perms, onehot = _perm_tables(4)
    assert _perm_tables(4)[0] is perms
    assert not perms.flags.writeable and not onehot.flags.writeable
    assert perms.tolist() == [list(p) for p in itertools.permutations(range(4))]
    assert (onehot.reshape(-1, 4, 4).argmax(axis=2) == perms).all()
    assert (onehot.sum(axis=1) == 4).all()


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
        unrestricted = ambiguity_set_csi(inst, eps=0.35, restrict=False)
        assert restricted <= {p.mapping for p in unrestricted}
        assert unrestricted.candidate_space == math.factorial(5)


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


def test_select_from_singleton_and_empty():
    only = Permutation((1, 0))
    s = AmbiguitySet((only,), eps=0.1, mode="csi", candidate_space=2)
    assert select_labeling(s, seed=99) == only
    empty = AmbiguitySet((), eps=0.1, mode="csi", candidate_space=2)
    with pytest.raises(EmptyAmbiguitySetError):
        select_labeling(empty, seed=0)


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
