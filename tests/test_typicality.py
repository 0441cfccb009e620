import math

import numpy as np
import pytest

from commatch.errors import ParameterError
from commatch.graphgen import anonymize, sample_pair
from commatch.model import copy_joint, dsbs_joint, homogeneous_model, uniform_product_joint
from commatch.permutation import Permutation
from commatch.typicality import (
    DEFAULT_KAPPA,
    block_slots,
    blocks_jointly_typical,
    count_windows,
    default_epsilon,
    extract_paired_blocks,
    is_jointly_typical,
    joint_type,
    paired_blocks,
)

UNIF = uniform_product_joint(2)


@pytest.mark.parametrize("n", [2, 8, 10, 100])
def test_default_epsilon_formula(n):
    assert default_epsilon(n) == DEFAULT_KAPPA * math.log2(n) / n


def test_default_epsilon_values():
    assert default_epsilon(2) == 1.0
    assert default_epsilon(8) == 0.75
    assert default_epsilon(10) == pytest.approx(0.6643856189774724, abs=0)
    assert default_epsilon(8, kappa=1.0) == 0.375


def test_default_epsilon_needs_two_samples():
    with pytest.raises(ParameterError):
        default_epsilon(1)
    with pytest.raises(ParameterError):
        default_epsilon(0)


def test_joint_type_counts():
    jt = joint_type([0, 1, 1, 0], [1, 1, 0, 0])
    assert jt.counts.tolist() == [[1, 1], [1, 1]]
    assert jt.n == 4


def test_joint_type_explicit_shape():
    jt = joint_type([0, 0], [1, 1], shape=(2, 3))
    assert jt.counts.shape == (2, 3)
    assert jt.counts[0, 1] == 2 and jt.counts.sum() == 2


def test_joint_type_length_mismatch():
    with pytest.raises(ParameterError):
        joint_type([0, 1], [0])


def test_typicality_window_is_inclusive():
    # counts (2,1,1,0)/4 deviate from 0.25 by exactly 0.25
    x = [0, 0, 0, 1]
    y = [0, 0, 1, 0]
    assert is_jointly_typical(x, y, UNIF, 0.25)
    assert not is_jointly_typical(x, y, UNIF, 0.2499)


def test_exact_type_is_typical_at_zero_eps():
    x = [0, 0, 1, 1]
    y = [0, 1, 0, 1]
    assert is_jointly_typical(x, y, UNIF, 0.0)


def test_empty_sequences_are_typical():
    assert is_jointly_typical([], [], UNIF, 0.0)


def test_everything_typical_at_eps_one():
    assert is_jointly_typical([0] * 6, [0] * 6, UNIF, 1.0)


GRID_05 = [i / 20 for i in range(21)]  # 0.0, 0.05, ..., 1.0


def test_count_windows_reproduce_the_float_test():
    p = np.array(GRID_05)
    for slots in range(1, 60):
        k = np.arange(slots + 1)
        for eps in GRID_05:
            lo, hi = count_windows(p, eps, slots)
            inside = (lo[:, None] <= k) & (k <= hi[:, None])
            assert (inside == (np.abs(k / slots - p[:, None]) <= eps)).all(), (slots, eps)
    # one stacked call mixing every slot count, 0 included, gives the scalar
    # calls' windows cell by cell
    slots = np.arange(60)
    for eps in GRID_05:
        lo, hi = count_windows(p[:, None], eps, slots)  # (21, 60)
        for s in slots.tolist():
            want_lo, want_hi = count_windows(p, eps, s)
            assert (lo[:, s] == want_lo).all() and (hi[:, s] == want_hi).all(), (s, eps)


def test_count_windows_boundaries():
    # exact rationals on these floats put 2/5 - 0.15 above 0.25; float64 does not
    lo, hi = count_windows(np.array([[0.15]]), 0.25, 5)
    assert lo[0, 0] <= 2 <= hi[0, 0]
    assert is_jointly_typical([1, 1, 0, 0, 0], [1, 1, 0, 0, 0],
                              np.array([[0.6, 0.25], [0.0, 0.15]]), 0.25)
    # p = 0.5, eps 0.3 over 25 slots: count 5 passes, count 20 does not
    lo, hi = count_windows(np.array([0.5]), 0.3, 25)
    assert (lo[0], hi[0]) == (5, 19)
    # no count within eps: an empty window
    lo, hi = count_windows(np.array([0.5]), 0.05, 3)
    assert lo[0] > hi[0]


def test_count_windows_are_shared_and_read_only():
    p = np.array([[0.4, 0.1], [0.1, 0.4]])
    lo, hi = count_windows(p, 0.2, 9)
    again = count_windows(p.copy(), 0.2, 9)
    assert again[0] is lo and again[1] is hi
    assert not lo.flags.writeable and not hi.flags.writeable
    # same bytes, another shape: another entry
    assert count_windows(p.reshape(4), 0.2, 9)[0].shape == (4,)
    # slots broadcast against p: one entry per stacked call, read-only too
    stacked = count_windows(p, 0.2, np.array([[9], [0]]))
    assert count_windows(p, 0.2, np.array([[9], [0]]))[0] is stacked[0]
    assert not stacked[0].flags.writeable and not stacked[1].flags.writeable
    assert (stacked[0][0] == lo[0]).all() and (stacked[1][0] == hi[0]).all()
    assert not stacked[0][1].any() and not stacked[1][1].any()  # the 0-slot row
    # the same slot counts in another shape: another entry
    by_column = count_windows(p, 0.2, np.array([9, 0]))
    assert by_column[0] is not stacked[0]
    assert (by_column[0][:, 0] == lo[:, 0]).all() and not by_column[1][:, 1].any()
    # no slots: the only count, 0, passes every cell
    lo, hi = count_windows(p, 0.05, 0)
    assert not lo.any() and not hi.any()


def test_block_slots_intra_upper_triangle():
    # sorted label order, strict upper triangle, row major
    assert block_slots((2, 0)) == [(0, 2)]
    assert block_slots((3, 0, 5)) == [(0, 3), (0, 5), (3, 5)]
    assert block_slots((7,)) == []


def test_block_slots_inter_cross_product():
    assert block_slots((1, 3), (0, 2)) == [(1, 0), (1, 2), (3, 0), (3, 2)]
    assert block_slots((), (0, 1)) == []


def _pair(seed, sizes=(3, 3), joint=None):
    model, lay = homogeneous_model(copy_joint(2) if joint is None else joint, sizes)
    return sample_pair(model, lay, seed)


def test_paired_blocks_shapes():
    pair = _pair(seed=3)
    blocks = extract_paired_blocks(pair, Permutation.identity(6))
    # (1,1), (1,2), (2,2) with sizes (3,3): 3, 9, 3 slots
    assert {k: len(v[0]) for k, v in blocks.blocks.items()} == {
        (0, 0): 3, (0, 1): 9, (1, 1): 3}
    for x, y in blocks.blocks.values():
        assert len(x) == len(y)
    assert blocks.total_slots() == 15


def test_truth_blocks_match_under_copy_coupling():
    # deterministic coupling: identity-aligned blocks are identical sequences
    pair = _pair(seed=11)
    blocks = extract_paired_blocks(pair, Permutation.identity(6))
    for x, y in blocks.blocks.values():
        assert np.array_equal(x, y)
    assert blocks_jointly_typical(blocks, pair.model.joint, 1.0)


def test_blocks_jointly_typical_agrees_with_per_block_check():
    pair = _pair(seed=5, joint=dsbs_joint(0.2))
    for guess_seed in range(4):
        rng = np.random.default_rng(guess_seed)
        guess = Permutation(tuple(int(v) for v in rng.permutation(6)))
        blocks = extract_paired_blocks(pair, guess)
        for eps in (0.1, 0.3, 0.6):
            direct = all(
                is_jointly_typical(x, y, dsbs_joint(0.2), eps)
                for x, y in blocks.blocks.values())
            assert blocks_jointly_typical(blocks, pair.model.joint, eps) == direct


def test_paired_blocks_requires_consistent_community_sizes():
    v = np.zeros((4, 4), dtype=np.int64)
    ltv = (0, 1, 2, 3)
    with pytest.raises(ParameterError):
        paired_blocks(v, (0, 0, 1, 1), v, ltv, (0, 1, 1, 1), 2)


def test_paired_blocks_on_instance_matches_pair_view():
    # anonymize then undo: reading g2 through the truth must reproduce the
    # identity-aligned blocks of the raw pair
    pair = _pair(seed=7, joint=dsbs_joint(0.3))
    inst = anonymize(pair, "csi", shuffle_seed=9)
    truth = inst.sealed_truth()
    via_inst = paired_blocks(inst.g1_values, inst.comm1_of_label,
                             inst.g2_values, truth.inverse().mapping,
                             inst.comm2_of_vertex, inst.c)
    via_pair = extract_paired_blocks(pair, Permutation.identity(6))
    assert via_inst.blocks.keys() == via_pair.blocks.keys()
    for key in via_inst.blocks:
        assert np.array_equal(via_inst.blocks[key][0], via_pair.blocks[key][0])
        assert np.array_equal(via_inst.blocks[key][1], via_pair.blocks[key][1])
