import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from commatch.errors import ParameterError, SizeGuardError
from commatch.model import CommunityLayout, dsbs_joint, uniform_product_joint
from commatch.oracle import (
    derangement_count,
    enumerate_labelings,
    exact_typicality_probability,
)
from commatch.permutation import Permutation, standard_permutation
from commatch.typicality import is_jointly_typical

UNIF_EXACT = [[Fraction(1, 4)] * 2] * 2
DSBS_EXACT = dsbs_joint(Fraction(1, 10), exact=True)


def test_uniform_product_small_case_exact():
    # n=2, eps=0.3: typical iff the two slots carry different (x, y) symbols,
    # 12 of the 16 equiprobable outcomes
    p = exact_typicality_probability(UNIF_EXACT, 2, Permutation.identity(2), Fraction(3, 10))
    assert p.exact
    assert p.value == Fraction(3, 4)
    assert p.outcomes == 16 and p.typical_outcomes == 12
    assert p.error_bound == 0.0


def test_uniform_product_small_case_float_path():
    p = exact_typicality_probability(uniform_product_joint(2), 2, Permutation.identity(2), 0.3)
    assert not p.exact
    assert p.as_float == pytest.approx(0.75, abs=1e-12)
    assert p.typical_outcomes == 12


def test_dsbs_three_cycle_frozen():
    p = exact_typicality_probability(DSBS_EXACT, 3, Permutation((1, 2, 0)), Fraction(1, 4))
    assert p.exact and p.value == Fraction(27, 4000)


def test_small_case_agrees_with_direct_enumeration():
    # independent recount of the same probability, no type grouping
    joint = DSBS_EXACT
    n, eps = 3, Fraction(1, 4)
    pi = Permutation((1, 2, 0))
    flat = [joint[x][y] for x in range(2) for y in range(2)]
    total = Fraction(0)
    for cells in itertools.product(range(4), repeat=n):
        xs = [c // 2 for c in cells]
        ys = [c % 2 for c in cells]
        zs = [ys[pi(i)] for i in range(n)]
        weight = math.prod(flat[c] for c in cells)
        ok = all(
            abs(Fraction(sum(1 for k in range(n) if xs[k] == a and zs[k] == b), n)
                - joint[a][b]) <= eps
            for a in range(2) for b in range(2))
        if ok:
            total += weight
    p = exact_typicality_probability(joint, n, pi, eps)
    assert p.value == total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_everything_typical_at_eps_one(n):
    p = exact_typicality_probability(DSBS_EXACT, n, Permutation.identity(n), Fraction(1))
    assert p.value == 1
    assert p.typical_outcomes == p.outcomes == 4 ** n


def test_class_invariance_spot_check():
    # same cycle parameters, same probability
    std = standard_permutation(1, (3,), 4)
    other = Permutation((0, 2, 3, 1))  # also one fixed point and a 3-cycle
    a = exact_typicality_probability(DSBS_EXACT, 4, std, Fraction(1, 4))
    b = exact_typicality_probability(DSBS_EXACT, 4, other, Fraction(1, 4))
    assert a.value == b.value


def test_joint_permutation_invariance_spot_check():
    # permuting both sequences by tau leaves the probability unchanged
    std = standard_permutation(0, (2, 2), 4)
    tau = Permutation((3, 2, 1, 0))
    a = exact_typicality_probability(DSBS_EXACT, 4, std, Fraction(1, 2))
    b = exact_typicality_probability(DSBS_EXACT, 4, std.compose(tau), Fraction(1, 2),
                                     pi_first=tau)
    assert a.value == b.value


def test_identity_probability_bounds_permuted_one():
    # fixed points of pi keep the joint coupling, others see the product law;
    # for DSBS the aligned law concentrates faster, so identity dominates here
    ident = exact_typicality_probability(DSBS_EXACT, 4, Permutation.identity(4), Fraction(1, 4))
    der = exact_typicality_probability(DSBS_EXACT, 4, standard_permutation(0, (4,), 4),
                                       Fraction(1, 4))
    assert ident.value > der.value


def test_monte_carlo_agreement():
    joint = dsbs_joint(0.25)
    n, eps, trials = 4, 0.25, 20000
    pi = standard_permutation(0, (4,), 4)
    p = exact_typicality_probability(joint, n, pi, eps).as_float
    rng = np.random.default_rng(77)
    cells = rng.choice(4, size=(trials, n), p=joint.reshape(-1))
    xs, ys = cells // 2, cells % 2
    zs = ys[:, pi.mapping]
    hits = sum(1 for k in range(trials) if is_jointly_typical(xs[k], zs[k], joint, eps))
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 4 * se + 1e-9


def test_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        exact_typicality_probability(UNIF_EXACT, 3, Permutation.identity(2), Fraction(1, 4))
    with pytest.raises(ParameterError):
        exact_typicality_probability([[Fraction(1, 2), Fraction(1, 2)],
                                      [Fraction(1, 2), Fraction(1, 2)]],
                                     2, Permutation.identity(2), Fraction(1, 4))
    with pytest.raises(ParameterError):
        exact_typicality_probability([[Fraction(3, 2), Fraction(-1, 2)],
                                      [Fraction(0), Fraction(0)]],
                                     2, Permutation.identity(2), Fraction(1, 4))


def test_outcome_cap_guard():
    with pytest.raises(SizeGuardError):
        exact_typicality_probability(UNIF_EXACT, 8, Permutation.identity(8),
                                     Fraction(1, 4), cap=1000)


@pytest.mark.parametrize("k,count", [(0, 1), (1, 0), (2, 1), (3, 2), (4, 9), (5, 44), (6, 265), (9, 133496)])
def test_derangement_counts(k, count):
    assert derangement_count(k) == count


def test_derangement_matches_brute_force():
    for k in range(2, 7):
        brute = sum(1 for q in itertools.permutations(range(k))
                    if all(q[i] != i for i in range(k)))
        assert derangement_count(k) == brute


def test_derangement_ratio_approaches_inverse_e():
    assert abs(derangement_count(10) / math.factorial(10) - math.exp(-1)) < 1e-7


@pytest.mark.parametrize("n", range(0, 9))
def test_derangement_sum_identity(n):
    # choosing the fixed points and deranging the rest covers S_n exactly once
    total = sum(math.comb(n, m) * derangement_count(n - m) for m in range(n + 1))
    assert total == math.factorial(n)


def test_enumerate_community_preserving():
    lay = CommunityLayout.contiguous((2, 2))
    out = list(enumerate_labelings(lay, community_preserving=True))
    assert len(out) == 4
    assert len({p.mapping for p in out}) == 4
    for p in out:
        for v in range(4):
            assert lay.membership[p(v)] == lay.membership[v]


def test_enumerate_all_labelings():
    lay = CommunityLayout.contiguous((2, 1))
    out = list(enumerate_labelings(lay, community_preserving=False))
    assert len(out) == 6
    assert len({p.mapping for p in out}) == 6
    # the 5! candidates unrestricted_csi_labelings scans on (3, 2) instances
    out = list(enumerate_labelings(CommunityLayout.contiguous((3, 2)), False))
    assert len({p.mapping for p in out}) == len(out) == math.factorial(5)


def test_enumerate_order_is_stable():
    lay = CommunityLayout.contiguous((3,))
    a = [p.mapping for p in enumerate_labelings(lay)]
    b = [p.mapping for p in enumerate_labelings(lay)]
    assert a == b == sorted(a)


def test_enumerate_cap_guard():
    lay = CommunityLayout.contiguous((10, 10))
    with pytest.raises(SizeGuardError):
        list(enumerate_labelings(lay, community_preserving=True, cap=100))
