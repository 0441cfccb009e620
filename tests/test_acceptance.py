"""Sign-off checks for the whole package.

One test per shipping criterion. Each prints a single PASS/FAIL line (visible
with -s, or in the captured output of failures) before asserting, so a full
run doubles as the acceptance checklist. Budgets and tolerances are pinned in
the asserts.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations as iter_permutations

import pytest

import commatch
from commatch.bounds import (
    achievability_check,
    achievability_check_csi,
    achievability_check_wsi,
    converse_check,
    converse_check_csi,
    converse_check_wsi,
    er_achievability,
    er_converse,
    permuted_typicality_bound,
)
from commatch.cli import ExperimentConfig, run_campaign
from commatch.graphgen import anonymize, sample_pair
from commatch.matcher import ambiguity_set_csi
from commatch.model import (
    copy_joint,
    dsbs_joint,
    homogeneous_model,
    save_model,
    uniform_product_joint,
)
from commatch.oracle import (derangement_count, exact_typicality_probability,
                             unrestricted_csi_labelings)
from commatch.permutation import (
    Permutation,
    cycle_parameter_space,
    standard_permutation,
)

UNIF_EXACT = [[Fraction(1, 4)] * 2] * 2
DSBS10_EXACT = dsbs_joint(Fraction(1, 10), exact=True)


def _report(k: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"[{k}] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)


# -- criterion 1: exact probability depends only on cycle parameters ----------

def test_1_cycle_class_exactness():
    t0 = time.time()
    failures = 0
    checked = 0
    for joint in (UNIF_EXACT, DSBS10_EXACT):
        for n in range(2, 7):
            tau = Permutation(tuple(range(n - 1, -1, -1)))
            for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
                for m, lengths in cycle_parameter_space(n):
                    std = standard_permutation(m, lengths, n)
                    conj = tau.compose(std).compose(tau.inverse())
                    p_std = exact_typicality_probability(joint, n, std, eps)
                    p_arb = exact_typicality_probability(joint, n, conj, eps)
                    p_joint = exact_typicality_probability(
                        joint, n, std.compose(tau), eps, pi_first=tau)
                    checked += 1
                    if not p_std.exact:
                        failures += 1
                    elif not p_std.value == p_arb.value == p_joint.value:
                        failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(1, "cycle-class exactness", ok,
            f"{checked} classes, {failures} mismatches, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


# -- criterion 2: exponent bound dominates the exact probability --------------

def test_2_exponent_bound_dominates_oracle():
    t0 = time.time()
    violations = 0
    checked = 0
    for n in (4, 6, 8):
        for alpha in (0.0, 1.0 / n, 0.5):
            m = round(alpha * n)
            for mm, lengths in cycle_parameter_space(n):
                if mm != m:
                    continue
                std = standard_permutation(mm, lengths, n)
                bound = permuted_typicality_bound(n, alpha, 0.25, DSBS10_EXACT).bound_log2
                p = exact_typicality_probability(DSBS10_EXACT, n, std, Fraction(1, 4))
                checked += 1
                if p.as_float > 2.0 ** bound:
                    violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120.0
    _report(2, "exponent bound dominates oracle", ok,
            f"{checked} cases, {violations} violations, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 120.0


# -- criteria 3 and 4 share one batch of seeded campaigns ----------------------

TRIALS = 200
MASTER_SEED = 42


@pytest.fixture(scope="module")
def separation_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    copy_path = base / "copy55.json"
    ind_path = base / "ind55.json"
    save_model(*homogeneous_model(copy_joint(2), (5, 5)), copy_path)
    save_model(*homogeneous_model(uniform_product_joint(2), (5, 5)), ind_path)

    def campaign(path, n):
        cfg = ExperimentConfig(model_path=str(path), n=n, mode="csi",
                               trials=TRIALS, master_seed=MASTER_SEED,
                               eps=None, kappa=2.0, cap=10_000_000)
        _, summary = run_campaign(cfg)
        return summary

    t0 = time.time()
    runs = {
        "copy10": campaign(copy_path, 10),
        "ind10": campaign(ind_path, 10),
        "copy8": campaign(copy_path, 8),
        "copy12": campaign(copy_path, 12),
    }
    runs["elapsed_s"] = time.time() - t0
    return runs


def test_3_matching_separation_at_default_schedule(separation_runs):
    r = separation_runs
    sep = r["copy10"]["mean_accuracy"] - r["ind10"]["mean_accuracy"]
    trend = r["copy12"]["mean_accuracy"] >= r["copy8"]["mean_accuracy"]
    elapsed = r["elapsed_s"]
    ok = sep >= 0.5 and trend and elapsed < 600.0
    _report(3, "matching separation at default schedule", ok,
            f"separation {sep:.4f}, trend n12>=n8 {trend}, {elapsed:.1f}s")
    # Known deficit, kept red on purpose: the default schedule at n=10 gives
    # eps ~ 0.66, where nearly every candidate is typical and a uniform pick
    # from the full community-preserving set scores ~ 2/n on both couplings.
    # Tightening eps raises separation but empties the set on many trials
    # (see test_4): no epsilon satisfies both this check and the inclusion
    # floor at this problem size.
    assert sep >= 0.5, (
        f"separation {sep:.4f} < 0.5 at the default schedule; "
        "see README and notes on finite-size behavior")
    assert trend
    assert elapsed < 600.0


def test_4_truth_inclusion_rate(separation_runs):
    rate = separation_runs["copy10"]["truth_inclusion_rate"]
    ok = rate >= 0.95
    _report(4, "true labeling retained by the matcher", ok,
            f"inclusion rate {rate:.3f} over {TRIALS} correlated trials")
    assert rate >= 0.95


# -- criterion 5: restricted candidates are a subset of unrestricted ----------

def test_5_set_containment_and_shared_region_code():
    worst = None
    for sizes, seeds in (((3, 2), range(4)), ((5,), range(4))):
        model, lay = homogeneous_model(dsbs_joint(0.2), sizes)
        for seed in seeds:
            inst = anonymize(sample_pair(model, lay, seed), "csi", shuffle_seed=seed)
            for eps in (0.45, 0.7, 1.0):
                restricted = {p.mapping for p in ambiguity_set_csi(inst, eps=eps)}
                unrestricted = {p.mapping
                                for p in unrestricted_csi_labelings(inst, eps=eps)}
                if not restricted <= unrestricted:
                    worst = (sizes, seed, eps, "containment")
                if len(sizes) == 1 and restricted != unrestricted:
                    worst = (sizes, seed, eps, "c=1 equality")
    shared = (achievability_check_csi is achievability_check
              and achievability_check_wsi is achievability_check
              and converse_check_csi is converse_check
              and converse_check_wsi is converse_check)
    ok = worst is None and shared
    _report(5, "ambiguity-set containment and shared region code", ok,
            "violation at " + repr(worst) if worst else "all instances")
    assert worst is None
    assert shared


# -- criterion 6: single-community region numerics -----------------------------

def test_6_single_community_region_numbers():
    tol = 1e-9
    small = er_achievability(copy_joint(2), 10, 0.05)
    large = er_achievability(copy_joint(2), 1000, 0.05)
    lhs_small = 8 * math.log2(10) / 10  # 2.658 to three decimals
    checks = {
        "n=10 not satisfied": not small.satisfied,
        "n=10 worst at alpha=0": small.worst_alpha == 0.0,
        "n=10 margin": abs(small.margin_bits - (1.0 - lhs_small)) < tol,
        "n=1000 satisfied": large.satisfied,
    }
    for n in (2, 3, 10, 100, 1000):
        checks[f"independent impossible n={n}"] = er_converse(
            uniform_product_joint(2), n).impossible
    conv = er_converse(dsbs_joint(0.11), 1000)
    mi = 1.0 - (-(0.11 * math.log2(0.11) + 0.89 * math.log2(0.89)))
    checks["rate check"] = abs(conv.lhs_bits - 2 * math.log2(1000) / 1000) < tol
    checks["information check"] = abs(conv.rhs_bits - mi) < tol
    checks["not ruled out"] = not conv.impossible and conv.lhs_bits <= 0.5
    bad = [k for k, v in checks.items() if not v]
    _report(6, "single-community region numerics", not bad,
            f"lhs(10)={lhs_small:.3f}" + (f", failing: {bad}" if bad else ""))
    assert not bad


# -- criterion 7: counting identities ------------------------------------------

def test_7_counting_identities():
    brute = sum(1 for q in iter_permutations(range(4))
                if all(q[i] != i for i in range(4)))
    ok = brute == derangement_count(4) == 9
    sums_ok = all(
        sum(math.comb(n, m) * derangement_count(n - m) for m in range(n + 1))
        == math.factorial(n)
        for n in range(9))
    _report(7, "derangement counting identities", ok and sums_ok,
            f"!4={brute}, fixed-point sums n<=8 {'ok' if sums_ok else 'bad'}")
    assert ok
    assert sums_ok


# -- criterion 8: byte-identical CLI reruns ------------------------------------

# The child imports the package this process imported, wherever it runs and
# whether or not the package is installed: a relative PYTHONPATH such as
# `src` stops resolving once the child's working directory is tmp_path.
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(commatch.__file__)))


def _cli(args, cwd):
    argv = [sys.executable, "-m", "commatch"] + args
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    run = subprocess.run(argv, capture_output=True, cwd=cwd, env=env)
    assert run.returncode == 0, (
        f"{argv} exited {run.returncode}; stderr:\n"
        + run.stderr.decode(errors="replace"))
    return run.stdout


def test_8_cli_byte_determinism(tmp_path):
    c2 = tmp_path / "c2.json"
    save_model(*homogeneous_model(dsbs_joint(0.2), (3, 3)), c2)
    c1 = tmp_path / "c1.json"
    save_model(*homogeneous_model(copy_joint(2), (6,)), c1)
    unif = tmp_path / "unif.json"
    save_model(*homogeneous_model(uniform_product_joint(2), (3,)), unif)
    inst = tmp_path / "inst.json"
    _cli(["generate", "--model", "c2.json", "--seed", "3",
          "--out", "inst.json"], tmp_path)

    invocations = [
        (["generate", "--model", "c2.json", "--seed", "5", "--out", "g{r}.json"],
         ["g{r}.json"]),
        (["match", "--input", "inst.json", "--eps", "1.0", "--seed", "7",
          "--out", "m{r}.json"], ["m{r}.json"]),
        (["region", "--model", "c2.json", "--n", "10", "--delta", "0.2",
          "--grid", "0.2"], []),
        (["converse", "--model", "c2.json", "--n", "12"], []),
        (["campaign", "--model", "c2.json", "--n", "6", "--trials", "4",
          "--seed", "2", "--eps", "1.0", "--out", "camp{r}"],
         ["camp{r}.csv", "camp{r}.summary.json"]),
        (["scan", "--model", "c1.json", "--n-list", "10,100",
          "--delta", "0.05"], []),
        (["verify", "--check", "prop1", "--model", "unif.json", "--n", "3",
          "--eps", "0.25"], []),
    ]
    unstable = []
    for args, out_names in invocations:
        outputs = []
        for r in (1, 2):
            concrete = [a.replace("{r}", str(r)) for a in args]
            stdout = _cli(concrete, tmp_path)
            blobs = [stdout]
            for name in out_names:
                blobs.append((tmp_path / name.replace("{r}", str(r))).read_bytes())
            outputs.append(blobs)
        if outputs[0] != outputs[1]:
            unstable.append(args[0])
    _report(8, "byte-identical CLI reruns", not unstable,
            f"{len(invocations)} subcommands" + (f", unstable: {unstable}" if unstable else ""))
    assert not unstable
