import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from commatch import oracle
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


def _reference_probability(joint, n, pi, eps, pi_first=None):
    """One outcome pair at a time in pure Python, with Fraction windows:
    (probability, typical outcome count)."""
    rows = joint.tolist() if isinstance(joint, np.ndarray) else joint
    cells = [(a, b) for a in range(len(rows)) for b in range(len(rows[0]))]
    eps = Fraction(eps)
    fx = pi_first.mapping if pi_first is not None else tuple(range(n))
    terms, typical = [], 0
    for outcome in itertools.product(cells, repeat=n):
        pairs = [(outcome[fx[i]][0], outcome[pi(i)][1]) for i in range(n)]
        if all(abs(Fraction(pairs.count(c), n) - Fraction(rows[c[0]][c[1]])) <= eps
               for c in cells):
            typical += 1
            terms.append(math.prod(rows[a][b] for a, b in outcome))
    exact = all(isinstance(rows[a][b], (Fraction, int)) for a, b in cells)
    return (sum(terms, Fraction(0)) if exact else math.fsum(terms)), typical


L3_EXACT = [[Fraction(1, 5), Fraction(1, 20), Fraction(1, 20)],
            [Fraction(1, 20), Fraction(1, 5), Fraction(1, 20)],
            [Fraction(1, 20), Fraction(1, 20), Fraction(3, 10)]]
REFERENCE_CASES = [  # (joint, n, eps)
    (DSBS_EXACT, 4, Fraction(1, 4)),
    (UNIF_EXACT, 3, Fraction(1, 5)),
    ([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], 4, Fraction(1, 3)),
    (dsbs_joint(0.1), 4, 0.3),
    (uniform_product_joint(2), 2, 0.25),
    (L3_EXACT, 3, Fraction(1, 4)),
    (np.asarray(L3_EXACT, dtype=float), 3, 0.3),
    ([[Fraction(1, 6)] * 3, [Fraction(1, 12), Fraction(1, 6), Fraction(1, 4)]], 2, Fraction(1, 3)),
]


@pytest.mark.parametrize("chunk", [None, 50])
@pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
def test_matches_pure_python_enumeration(monkeypatch, case, chunk):
    joint, n, eps = REFERENCE_CASES[case]
    if chunk is not None:  # several chunks of leading digits, the last one partial
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    cycle = Permutation(tuple(range(1, n)) + (0,))
    for pi, pi_first in [(Permutation.identity(n), None), (cycle, None),
                         (cycle, Permutation(tuple(reversed(range(n))))), (cycle, cycle)]:
        value, typical = _reference_probability(joint, n, pi, eps, pi_first)
        p = exact_typicality_probability(joint, n, pi, eps, pi_first=pi_first)
        assert p.typical_outcomes == typical
        assert p.outcomes == (len(joint) * len(joint[0])) ** n
        if p.exact:
            assert p.value == value
        else:
            assert p.as_float == pytest.approx(value, abs=1e-15)


@pytest.mark.parametrize("joint,n,blocks", [(DSBS_EXACT, 4, [3] * 5 + [1]), (L3_EXACT, 3, [5] * 16 + [1])])
def test_small_chunks_split_the_leading_digits(monkeypatch, joint, n, blocks):
    seen = []
    stack = oracle._stack_digits

    def spy(lead, trail):
        seen.append(lead.shape[1])
        return stack(lead, trail)

    monkeypatch.setattr(oracle, "_CHUNK", 50)
    monkeypatch.setattr(oracle, "_stack_digits", spy)
    exact_typicality_probability(joint, n, Permutation.identity(n), Fraction(1, 2))
    assert seen[::2] == seen[1::2] == blocks  # x then y digits of each chunk


def test_digit_tables_are_shared_read_only_and_one_chunk_at_most():
    exact_typicality_probability(DSBS_EXACT, 10, Permutation.identity(10), Fraction(1, 4))
    tables = oracle._digit_table(2, 2, 9)  # 4^10 outcomes: 9 trailing digits fill one chunk
    assert oracle._digit_table(2, 2, 9) is tables
    tx, ty, ttype, types = tables
    assert tx.shape == ty.shape == (9, oracle._CHUNK) and ttype.shape == (oracle._CHUNK,)
    assert not any(a.flags.writeable for a in tables)
    # column r holds r's base-4 digits, most significant first; types are counts
    r = 4 ** 9 - 2
    digits = [(r // 4 ** (8 - i)) % 4 for i in range(9)]
    assert (tx[:, r] * 2 + ty[:, r]).tolist() == digits
    assert types[ttype[r]].tolist() == [digits.count(a) for a in range(4)]


def test_outcome_cap_refuses_before_building_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("a digit table was built")

    monkeypatch.setattr(oracle, "_digit_table", refuse)
    with pytest.raises(SizeGuardError):
        exact_typicality_probability(UNIF_EXACT, 14, Permutation.identity(14), Fraction(1, 4))
    with pytest.raises(SizeGuardError):
        exact_typicality_probability(L3_EXACT, 4, Permutation.identity(4), Fraction(1, 4), cap=6560)


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
