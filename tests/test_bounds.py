import math

import numpy as np
import pytest

from commatch.bounds import (
    _allocations,
    _kl_to_mixtures,
    _min_kl_over_ball,
    achievability_check,
    achievability_check_csi,
    achievability_check_wsi,
    achievability_profile,
    converse_check,
    converse_check_csi,
    converse_check_wsi,
    er_achievability,
    er_converse,
    fixed_point_mixture,
    kl_divergence,
    mutual_information,
    permuted_typicality_bound,
)
from commatch.errors import InfeasibleAllocationError, ParameterError
from commatch.model import (
    CommunityLayout,
    copy_joint,
    dsbs_joint,
    homogeneous_model,
    single_community,
    uniform_product_joint,
)

COPY55_MODEL, COPY55_LAYOUT = homogeneous_model(copy_joint(2), (5, 5))


def test_kl_frozen_value():
    d = kl_divergence(np.array([0.3, 0.7]), np.array([0.5, 0.5]))
    assert d == pytest.approx(0.1187091007693073, abs=1e-15)


def test_kl_zero_iff_equal():
    p = np.array([0.2, 0.3, 0.5])
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(p, np.array([0.25, 0.25, 0.5])) > 0.0


@pytest.mark.parametrize("seed", range(5))
def test_kl_nonnegative(seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(6))
    q = rng.dirichlet(np.ones(6))
    assert kl_divergence(p, q) >= 0.0


def test_kl_zero_mass_conventions():
    # 0 log 0 = 0; mass where q vanishes gives +inf
    assert kl_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == 1.0
    assert kl_divergence(np.array([0.5, 0.5]), np.array([0.0, 1.0])) == math.inf


def test_kl_shape_mismatch():
    with pytest.raises(ParameterError):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0]))


def test_mutual_information_frozen():
    assert mutual_information(dsbs_joint(0.11)) == pytest.approx(0.5000840418354721, abs=1e-15)
    assert mutual_information(copy_joint(2)) == 1.0
    assert mutual_information(uniform_product_joint(2)) == 0.0


def test_mutual_information_is_kl_to_product():
    j = dsbs_joint(0.2)
    prod = np.outer(j.sum(axis=1), j.sum(axis=0))
    assert mutual_information(j) == kl_divergence(j.reshape(-1), prod.reshape(-1))


def test_fixed_point_mixture_endpoints():
    j = dsbs_joint(0.2)
    prod = np.outer(j.sum(axis=1), j.sum(axis=0))
    assert np.allclose(fixed_point_mixture(j, 0.0), prod)
    assert np.allclose(fixed_point_mixture(j, 1.0), j)
    mid = fixed_point_mixture(j, 0.3)
    assert np.allclose(mid, 0.7 * prod + 0.3 * j)


def test_ball_minimization_edges():
    # eps=0 pins r to p; eps >= covering radius reaches q itself
    assert _min_kl_over_ball(np.array([1.0, 0.0]), 0.0, np.array([0.5, 0.5])) == 1.0
    assert _min_kl_over_ball(np.array([1.0, 0.0]), 0.0, np.array([0.0, 1.0])) == math.inf
    assert _min_kl_over_ball(np.array([0.5, 0.5]), 1.0, np.array([0.25, 0.75])) == 0.0


def test_ball_minimization_shrinks_divergence():
    p = dsbs_joint(0.11).reshape(-1)
    q = uniform_product_joint(2).reshape(-1)
    base = kl_divergence(p, q)
    prev = base
    for eps in (1e-9, 0.01, 0.05, 0.2):
        cur = _min_kl_over_ball(p, eps, q)
        assert cur <= prev + 1e-15
        prev = cur
    assert _min_kl_over_ball(p, 1e-9, q) == pytest.approx(base, abs=1e-7)


def test_exponent_report_identity():
    rep = permuted_typicality_bound(10, 0.3, 0.25, dsbs_joint(0.1))
    assert rep.type_count_log == 16 * math.log2(11)
    assert rep.bound_log2 == rep.type_count_log - 10 / 4 * (rep.divergence_term - rep.eps_penalty)
    assert rep.eps_penalty == 4 * 0.25


def test_exponent_alpha_one_divergence_vanishes():
    rep = permuted_typicality_bound(8, 1.0, 0.1, dsbs_joint(0.1))
    assert rep.divergence_term == 0.0


def test_exponent_tiny_eps_recovers_mutual_information():
    rep = permuted_typicality_bound(8, 0.0, 1e-9, dsbs_joint(0.11))
    assert rep.divergence_term == pytest.approx(mutual_information(dsbs_joint(0.11)), abs=1e-7)
    assert rep.divergence_term <= mutual_information(dsbs_joint(0.11))


def test_exponent_monotone_in_eps_and_alpha():
    j = dsbs_joint(0.1)
    divs_eps = [permuted_typicality_bound(8, 0.0, e, j).divergence_term
                for e in (0.01, 0.05, 0.1, 0.2, 0.4)]
    assert all(a >= b - 1e-12 for a, b in zip(divs_eps, divs_eps[1:]))
    divs_alpha = [permuted_typicality_bound(8, a, 0.05, j).divergence_term
                  for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(divs_alpha, divs_alpha[1:]))


def _kl_to_mixtures_per_row(joint, betas):
    """One np.sum per mixture weight, skipping mixtures that vanish on a
    positive cell."""
    px, py = joint.sum(axis=1), joint.sum(axis=0)
    pos = joint > 0
    out = []
    for b in betas:
        mk = ((1.0 - b) * np.outer(px, py) + b * joint)[pos]
        out.append(math.inf if np.any(mk == 0) else float(np.sum(joint[pos] * np.log2(joint[pos] / mk))))
    return np.array(out)


def _random_joint(rng, shape, zeros=False):
    j = rng.random(shape) ** 3
    if zeros:
        j[rng.random(shape) < 0.3] = 0.0
        j.flat[0] = 1.0
    return j / j.sum()


@pytest.mark.parametrize("name", ["dsbs", "copy", "product", "random22", "dense33", "zeros33",
                                  "dense55", "dense12x12", "underflow"])
def test_kl_to_mixtures_matches_per_row_sums_bit_for_bit(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    joint = {
        "dsbs": dsbs_joint(0.1),
        "copy": copy_joint(2),
        "product": uniform_product_joint(2),
        "random22": _random_joint(rng, (2, 2)),
        "dense33": _random_joint(rng, (3, 3)),  # 9 cells: numpy's eight-way tree
        "zeros33": _random_joint(rng, (3, 3), zeros=True),
        "dense55": _random_joint(rng, (5, 5)),
        "dense12x12": _random_joint(rng, (12, 12)),  # 144 cells: summed in halves
        # the product underflows at a positive cell, so beta = 0 gives inf
        "underflow": np.array([[1e-200, 0.0], [0.0, 1.0 - 1e-200]]),
    }[name]
    betas = np.concatenate([[0.0, 1.0], rng.random(300), np.linspace(0.0, 1.0, 101)])
    got = _kl_to_mixtures(joint, betas)
    assert got.tobytes() == _kl_to_mixtures_per_row(joint, betas).tobytes()
    assert (got[1] == 0.0) and (math.isinf(got[0]) == (name == "underflow"))


def test_profile_alpha_grid_covers_endpoints():
    rows = achievability_profile(COPY55_MODEL, COPY55_LAYOUT, 10, delta=0.2, grid_step=0.2)
    alphas = [r.alpha for r in rows]
    assert alphas[0] == 0.0
    assert alphas[-1] == pytest.approx(0.8, abs=1e-12)
    assert len(alphas) == 5


def test_profile_allocations_respect_caps():
    rows = achievability_profile(COPY55_MODEL, COPY55_LAYOUT, 10, delta=0.5, grid_step=0.1)
    for r in rows:
        assert sum(r.allocation) == pytest.approx(r.alpha, abs=1e-9)
        for a_i, n_i in zip(r.allocation, (5, 5)):
            assert a_i <= n_i / 10 + 1e-12


def test_profile_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        achievability_profile(COPY55_MODEL, COPY55_LAYOUT, 10, delta=0.0)
    with pytest.raises(ParameterError):
        achievability_profile(COPY55_MODEL, COPY55_LAYOUT, 1, delta=0.1)
    with pytest.raises(ParameterError):
        achievability_profile(COPY55_MODEL, COPY55_LAYOUT, 10, delta=0.1, grid_step=-1.0)
    with pytest.raises(ParameterError, match="below the float64 spacing"):
        achievability_profile(COPY55_MODEL, COPY55_LAYOUT, 10, delta=0.1, grid_step=1e-20)


def test_allocation_endpoints_always_reachable():
    # caps are grid points regardless of step, so alpha = sum(caps) works
    out = _allocations(1.0, (1, 1), 2, 1.0)
    assert out.tolist() == [[0.5, 0.5]]


def test_allocation_infeasibility():
    with pytest.raises(InfeasibleAllocationError):
        _allocations(1.2, (1, 1), 2, 0.5)
    with pytest.raises(InfeasibleAllocationError):
        _allocations(-0.1, (1, 1), 2, 0.5)


def test_achievability_flips_with_n():
    small = achievability_check(COPY55_MODEL, COPY55_LAYOUT, 40, 0.05)
    large = achievability_check(COPY55_MODEL, COPY55_LAYOUT, 200, 0.05)
    assert not small.satisfied and small.margin_bits < 0.0
    assert small.worst_alpha == 0.0
    assert large.satisfied and large.margin_bits >= 0.0


def test_er_achievability_frozen_verdicts():
    small = er_achievability(copy_joint(2), 10, 0.05)
    assert not small.satisfied
    assert small.worst_alpha == 0.0
    assert small.margin_bits == pytest.approx(1.0 - 8 * math.log2(10) / 10, abs=1e-12)
    large = er_achievability(copy_joint(2), 1000, 0.05)
    assert large.satisfied and large.margin_bits > 0.0


@pytest.mark.parametrize("n", [10, 1000])
def test_single_community_forms_agree(n):
    sc = single_community(copy_joint(2))
    lay = CommunityLayout.contiguous((1,))
    general = achievability_check(sc, lay, n, 0.05)
    er = er_achievability(copy_joint(2), n, 0.05)
    assert general.satisfied == er.satisfied


def test_converse_frozen_values():
    v = converse_check(COPY55_MODEL, COPY55_LAYOUT, 10)
    assert v.lhs_bits == 10 * math.log2(10)
    assert v.rhs_bits == 45.0  # 45 slot pairs, one bit each
    assert not v.impossible


def test_converse_independent_model_impossible():
    model, lay = homogeneous_model(uniform_product_joint(2), (5, 5))
    for n in (2, 10, 100):
        assert converse_check(model, lay, n).impossible
        assert er_converse(uniform_product_joint(2), n).impossible


def test_er_converse_frozen_values():
    v = er_converse(dsbs_joint(0.11), 1000)
    assert v.lhs_bits == pytest.approx(2 * math.log2(1000) / 1000, abs=1e-15)
    assert v.rhs_bits == pytest.approx(0.5000840418354721, abs=1e-15)
    assert not v.impossible


def test_region_checkers_share_code_paths():
    assert achievability_check_csi is achievability_check
    assert achievability_check_wsi is achievability_check
    assert converse_check_csi is converse_check
    assert converse_check_wsi is converse_check
