"""The benchmark's workloads: inputs, closed loops and output checks.

Every workload is a closed loop run from one process: one operation at a
time, no threads, at most one child process. The program is entered only
through its documented CLI (`commatch.cli.main(argv)` in-process, or
`python -m commatch` as a child process) and through public functions, so
refactors of the package's private helpers do not touch the benchmark.

A run repeats rounds of the workload's operations until the time budget is
spent; only whole rounds run, so every run keeps the same operation mix.
Every operation draws a fresh seed from the benchmark seed, so a run sees many
distinct instances. After the loop the first command line of each kind runs
again and its outputs must repeat byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import commatch
from commatch import cli
from commatch.bounds import achievability_profile
from commatch.errors import EmptyAmbiguitySetError
from commatch.graphgen import anonymize, load_instance, sample_pair, save_instance
from commatch.matcher import run_matching
from commatch.model import (CommunityLayout, copy_joint, dsbs_joint,
                            homogeneous_model, load_model, save_model,
                            uniform_product_joint)
from commatch.oracle import enumerate_labelings, exact_typicality_probability
from commatch.permutation import (Permutation, cycle_decomposition,
                                  cycle_parameter_space, from_labelings,
                                  standard_permutation)
from commatch.typicality import (blocks_jointly_typical, default_epsilon,
                                 paired_blocks)

from spans import Spans

CHILD_TIMEOUT_S = 120
# Spans of the layer calls a campaign makes per trial; the rest of a
# campaign's wall time is the CLI's own (cli.campaign_self_ms).
CAMPAIGN_CALLS = ("model.load_model", "graphgen.sample_pair", "graphgen.anonymize",
                  "matcher.run_matching")


def instance_seed(seed: int) -> int:
    """Seed of the instance file a workload prepares."""
    return random.Random(f"instance-{seed}").randrange(1, 2 ** 31)


def child_env() -> dict:
    """Environment for `python -m commatch` children.

    PYTHONPATH is absolute and derived from the imported package, so it keeps
    resolving whatever the child's working directory is.
    """
    src = str(Path(commatch.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src)


def call_cli(argv: list[str]) -> int:
    """Run one CLI command in-process; its stderr timing line is dropped."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def call_cli_guarded(argv: list[str]):
    """Exit code of an in-process CLI call; a crash is reported as text, so it
    counts as a failed operation instead of ending the run."""
    try:
        return call_cli(argv)
    except Exception as e:
        return f"{type(e).__name__}: {e}"


@dataclass
class Run:
    """State of one benchmark run."""

    work: Path
    seeds: random.Random  # draws each operation's --seed
    spans: Spans
    op_ms: list[float] = field(default_factory=list)  # latency of each operation
    busy_s: float = 0.0  # wall time inside the timed calls
    done: int = 0  # operations completed: trials, or CLI invocations
    attempted: int = 0
    failed: int = 0
    first: dict = field(default_factory=dict)  # op kind -> (argv, outputs) of its first call
    recount_rows: dict = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    classes: set = field(default_factory=set)  # cycle classes (m, lengths) seen
    op_id: int = 0
    env: dict = field(default_factory=child_env)  # for CLI children


# -- replay of one trial through the public layer functions (traced run) -------

def replay_trial(model, layout: CommunityLayout, mode: str, eps: float, seed: int,
                 run: Run, trial: str) -> None:
    """The calls a campaign trial makes, each in its own span, plus one
    typicality decision and the cycle class of the matcher's error."""
    sp = run.spans
    with sp.span("graphgen.sample_pair", trial):
        pair = sample_pair(model, layout, seed)
    run.counts["slots"] += layout.n * (layout.n - 1) // 2
    with sp.span("graphgen.anonymize", trial):
        inst = anonymize(pair, mode, seed)
    truth = inst.sealed_truth()
    try:
        with sp.span("matcher.run_matching", trial):
            res = run_matching(inst, eps, seed=seed)
    except EmptyAmbiguitySetError:
        run.counts["empty_sets"] += 1
        run.counts["candidates"] += candidate_space(layout, mode)
        chosen = truth
    else:
        d = res.diagnostics
        run.counts["candidates"] += d.candidate_space
        run.counts["ambiguity"] += d.ambiguity_size
        run.counts["truth_included"] += d.truth_included
        chosen = res.labeling
    decide(inst, layout, chosen, truth, eps, run, trial)
    with sp.span("permutation.cycle_decomposition", trial):
        cs = cycle_decomposition(from_labelings(truth, chosen))
    run.classes.add((cs.m, cs.lengths))


def candidate_space(layout: CommunityLayout, mode: str) -> int:
    """Candidates the matcher examines (for trials whose set came out empty)."""
    if mode == "csi":
        return math.prod(math.factorial(s) for s in layout.sizes)
    assignments = math.factorial(layout.n) // math.prod(
        math.factorial(s) for s in layout.sizes)
    return math.factorial(layout.n) * assignments


def decide(inst, layout: CommunityLayout, chosen, truth, eps: float, run: Run,
           trial: str) -> None:
    """One paired_blocks + blocks_jointly_typical decision under the true
    community maps, timed as typicality.decide."""
    comm1 = layout.membership
    comm2 = tuple(comm1[t] for t in truth.mapping)
    ltv = chosen.inverse().mapping
    with run.spans.span("typicality.decide", trial):
        blocks_jointly_typical(
            paired_blocks(inst.g1_values, comm1, inst.g2_values, ltv, comm2, inst.c),
            inst.model.joint, eps)


def replay_campaign(model_path: Path, n: int, mode: str, eps: Optional[float],
                    trials: int, master_seed: int, run: Run) -> None:
    """Replay a campaign's trials; adds their layer time to the campaign total."""
    sp = run.spans
    first = len(sp.records)
    with sp.span("model.load_model", str(run.op_id)):
        model, base = load_model(model_path)
    layout = CommunityLayout.contiguous(base.scaled_sizes(n))
    eps = default_epsilon(n) if eps is None else eps
    for i in range(trials):
        replay_trial(model, layout, mode, eps, cli.trial_seed(master_seed, i), run,
                     f"{run.op_id}.{i}")
    run.counts["campaign_layer_s"] += sum(
        r[2] - r[1] for r in sp.records[first:] if r[0] in CAMPAIGN_CALLS)
    run.counts["campaign_trials"] += trials


# -- brute-force recounts (output checks) ----------------------------------------

def recount_csi(inst, layout: CommunityLayout, eps: float, sp: Spans) -> int:
    """Typical community-preserving candidates, by full enumeration.

    Candidates come from oracle.enumerate_labelings on the contiguous layout;
    the q-th anonymized vertex of community i stands for that layout's q-th
    vertex of community i. Each candidate is decided by the scalar test.
    """
    comm2 = inst.comm2_of_vertex
    pos = {}
    for i in range(inst.c):
        verts = [v for v in range(inst.n) if comm2[v] == i]
        pos.update(zip(verts, layout.vertices_of(i)))
    with sp.span("oracle.enumerate_labelings"):
        candidates = list(enumerate_labelings(layout))
    members = 0
    with sp.span("typicality.recount"):
        for lab in candidates:
            ltv = [0] * inst.n
            for v in range(inst.n):
                ltv[lab.mapping[pos[v]]] = v
            blocks = paired_blocks(inst.g1_values, inst.comm1_of_label,
                                   inst.g2_values, ltv, comm2, inst.c)
            members += blocks_jointly_typical(blocks, inst.model.joint, eps)
    return members


def recount_wsi(inst, layout: CommunityLayout, eps: float, sp: Spans) -> int:
    """Candidates typical under some label-side community assignment with the
    declared sizes, by enumerating all n! labelings."""
    assignments = sorted(set(itertools.permutations(layout.membership)))
    with sp.span("oracle.enumerate_labelings"):
        candidates = list(enumerate_labelings(layout, community_preserving=False))
    members = 0
    with sp.span("typicality.recount"):
        for lab in candidates:
            m = lab.mapping
            ltv = lab.inverse().mapping
            for m1 in assignments:
                comm2 = tuple(m1[m[v]] for v in range(inst.n))
                blocks = paired_blocks(inst.g1_values, m1, inst.g2_values, ltv, comm2,
                                       inst.c)
                if blocks_jointly_typical(blocks, inst.model.joint, eps):
                    members += 1
                    break
    return members


# -- campaign workloads ------------------------------------------------------------

@dataclass(frozen=True)
class Campaign:
    model: str  # key into the workload's models
    n: int
    trials: int
    eps: Optional[float] = None  # None: the CLI's default schedule
    mode: str = "csi"
    recount: int = 0  # trials of the first call recounted by brute force


@dataclass(frozen=True)
class CampaignWorkload:
    """Rounds of `commatch campaign` calls made in-process through cli.main.

    An operation is one trial: a call of T trials adds T operations, each with
    latency (call wall time) / T.
    """

    name: str
    models: dict  # key -> (joint, community sizes)
    campaigns: tuple[Campaign, ...]

    @property
    def round_len(self) -> int:
        return len(self.campaigns)

    def prepare(self, work: Path, seed: int) -> None:
        for key, (joint, sizes) in self.models.items():
            save_model(*homogeneous_model(joint, sizes), work / f"{key}.json")

    def argv(self, j: int, seed: int, work: Path, trials=None, tag="camp") -> list[str]:
        c = self.campaigns[j]
        argv = ["campaign", "--model", str(work / f"{c.model}.json"), "--n", str(c.n),
                "--mode", c.mode, "--trials", str(trials or c.trials),
                "--seed", str(seed), "--out", str(work / f"{tag}{j}")]
        if c.eps is not None:
            argv += ["--eps", repr(c.eps)]
        return argv

    def warm_up(self, work: Path, seed: int) -> None:
        if call_cli(self.argv(0, seed, work, trials=1, tag="warm")) != 0:
            raise RuntimeError(f"{self.name}: warm-up campaign failed")

    @staticmethod
    def outputs(argv: list[str]) -> tuple[bytes, bytes]:
        prefix = argv[argv.index("--out") + 1]
        return (Path(prefix + ".csv").read_bytes(),
                Path(prefix + ".summary.json").read_bytes())

    def op(self, j: int, seed: int, run: Run) -> None:
        c = self.campaigns[j]
        argv = self.argv(j, seed, run.work)
        run.attempted += c.trials
        t0 = time.perf_counter()
        with run.spans.span("cli.campaign", str(run.op_id)):
            rc = call_cli_guarded(argv)
        wall = time.perf_counter() - t0
        run.busy_s += wall
        run.done += c.trials
        run.op_ms.extend([wall * 1000.0 / c.trials] * c.trials)
        if rc != 0:
            run.failed += c.trials
            return
        blobs = self.outputs(argv)
        if j not in run.first:
            run.first[j] = (argv, blobs)
        run.failed += self.check_rows(j, blobs[0], run)
        if run.spans.enabled:
            run.counts["campaign_wall_s"] += wall
            replay_campaign(run.work / f"{c.model}.json", c.n, c.mode, c.eps, c.trials,
                            seed, run)

    def check_rows(self, j: int, csv_bytes: bytes, run: Run) -> int:
        """Failed trials of one call: a trial may only fail with an empty
        ambiguity set. Keeps the first call's rows for the recount."""
        c = self.campaigns[j]
        lines = [ln for ln in csv_bytes.decode().splitlines() if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        bad = sum(1 for r in rows
                  if r["error"] and not r["error"].startswith("EmptyAmbiguitySetError"))
        if c.recount and j not in run.recount_rows:
            run.recount_rows[j] = rows[:c.recount]
        return bad + abs(c.trials - len(rows))

    def finish(self, run: Run) -> None:
        """Repeat checks and brute-force recounts; in the traced run also each
        campaign's region check through bounds.achievability_profile."""
        for j, (argv, blobs) in sorted(run.first.items()):
            with run.spans.span("cli.rerun"):
                rc = call_cli_guarded(argv)
            if rc != 0 or self.outputs(argv) != blobs:
                run.failed += self.campaigns[j].trials
        for j, rows in sorted(run.recount_rows.items()):
            c = self.campaigns[j]
            model, base = load_model(run.work / f"{c.model}.json")
            layout = CommunityLayout.contiguous(base.scaled_sizes(c.n))
            recount = recount_csi if c.mode == "csi" else recount_wsi
            for row in rows:
                s = int(row["seed"])
                inst = anonymize(sample_pair(model, layout, s), c.mode, s)
                if recount(inst, layout, float(row["eps"]), run.spans) != int(
                        row["ambiguity_size"]):
                    run.failed += 1
        if run.spans.enabled:
            for key, n in sorted({(c.model, c.n) for c in self.campaigns}):
                model, base = load_model(run.work / f"{key}.json")
                with run.spans.span("bounds.achievability_profile"):
                    rows = achievability_profile(model, base, n, 0.05)
                run.counts["alpha_rows"] += len(rows)

    def peak_rss_mb(self) -> float:
        return rss_mb(os_children=False)


# -- CLI workload --------------------------------------------------------------------

REGION_N = 100
VERIFY_N = 7
VERIFY_EPS = 0.25


@dataclass(frozen=True)
class CliWorkload:
    """Rounds of `python -m commatch` child processes, one at a time.

    An operation is one invocation; its latency is the child's wall time,
    start-up included.
    """

    name: str
    commands: tuple[str, ...] = ("help", "generate", "match", "campaign", "region",
                                 "verify")

    @property
    def round_len(self) -> int:
        return len(self.commands)

    def prepare(self, work: Path, seed: int) -> None:
        model, layout = homogeneous_model(dsbs_joint(0.1), (5, 5))
        save_model(model, layout, work / "d55.json")
        save_model(*homogeneous_model(dsbs_joint(0.1), (VERIFY_N,)), work / "d1.json")
        s = instance_seed(seed)
        save_instance(anonymize(sample_pair(model, layout, s), "csi", s),
                      work / "inst55.json")

    def argv(self, cmd: str, seed: int) -> tuple[list[str], list[str]]:
        """Command line and the files it writes, relative to the work dir."""
        if cmd == "help":
            return ["--help"], []
        if cmd == "generate":
            return (["generate", "--model", "d55.json", "--seed", str(seed),
                     "--out", "g.json"], ["g.json"])
        if cmd == "match":
            return (["match", "--input", "inst55.json", "--seed", str(seed),
                     "--out", "m.json"], ["m.json"])
        if cmd == "campaign":
            return (["campaign", "--model", "d55.json", "--n", "8", "--trials", "4",
                     "--seed", str(seed), "--out", "c"], ["c.csv", "c.summary.json"])
        if cmd == "region":
            return ["region", "--model", "d55.json", "--n", str(REGION_N),
                    "--delta", "0.05"], []
        return ["verify", "--check", "prop1", "--model", "d1.json", "--n", str(VERIFY_N),
                "--eps", repr(VERIFY_EPS)], []

    def warm_up(self, work: Path, seed: int) -> None:
        argv = ["match", "--input", str(work / "inst55.json"), "--out",
                str(work / "warm.json")]
        if call_cli(argv) != 0:
            raise RuntimeError(f"{self.name}: warm-up match failed")

    @staticmethod
    def invoke(argv: list[str], outs: list[str], run: Run):
        """Run one child; its stdout and written files, or None on a non-zero
        exit or a timeout."""
        try:
            proc = subprocess.run([sys.executable, "-m", "commatch", *argv],
                                  cwd=run.work, env=run.env, capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            return None
        return (proc.stdout,) + tuple((run.work / o).read_bytes() for o in outs)

    def op(self, j: int, seed: int, run: Run) -> None:
        cmd = self.commands[j]
        argv, outs = self.argv(cmd, seed)
        run.attempted += 1
        t0 = time.perf_counter()
        with run.spans.span(f"cli.{cmd}", str(run.op_id)):
            blobs = self.invoke(argv, outs, run)
        wall = time.perf_counter() - t0
        run.busy_s += wall
        run.done += 1
        run.op_ms.append(wall * 1000.0)
        if blobs is None:
            run.failed += 1
            return
        if j not in run.first:
            run.first[j] = (argv, outs, blobs)
        if run.spans.enabled:
            if cmd == "campaign":
                run.counts["campaign_wall_s"] += wall
            self.replay(cmd, seed, run)

    def replay(self, cmd: str, seed: int, run: Run) -> None:
        """In-process calls into the layers the command uses, one span each."""
        sp, work, t = run.spans, run.work, str(run.op_id)
        if cmd == "generate":
            with sp.span("model.load_model", t):
                model, layout = load_model(work / "d55.json")
            with sp.span("graphgen.sample_pair", t):
                pair = sample_pair(model, layout, seed)
            run.counts["slots"] += layout.n * (layout.n - 1) // 2
            with sp.span("graphgen.anonymize", t):
                inst = anonymize(pair, "csi", seed)
            with sp.span("graphgen.save_instance", t):
                save_instance(inst, work / "replay.json")
        elif cmd == "match":
            with sp.span("graphgen.load_instance", t):
                inst = load_instance(work / "inst55.json")
            layout = CommunityLayout.contiguous(inst.sizes)
            eps = default_epsilon(inst.n)
            with sp.span("matcher.run_matching", t):
                res = run_matching(inst, eps, seed=seed)
            d = res.diagnostics
            run.counts["candidates"] += d.candidate_space
            run.counts["ambiguity"] += d.ambiguity_size
            run.counts["truth_included"] += d.truth_included
            truth = inst.sealed_truth()
            decide(inst, layout, res.labeling, truth, eps, run, t)
            with sp.span("permutation.cycle_decomposition", t):
                cs = cycle_decomposition(from_labelings(truth, res.labeling))
            run.classes.add((cs.m, cs.lengths))
        elif cmd == "campaign":
            replay_campaign(work / "d55.json", 8, "csi", None, 4, seed, run)
        elif cmd == "region":
            with sp.span("model.load_model", t):
                model, layout = load_model(work / "d55.json")
            with sp.span("bounds.achievability_profile", t):
                rows = achievability_profile(model, layout, REGION_N, 0.05)
            run.counts["alpha_rows"] += len(rows)
        elif cmd == "verify":
            self.replay_verify(run, t)

    def replay_verify(self, run: Run, t: str) -> None:
        """The prop1 check's oracle and permutation calls."""
        sp, n = run.spans, VERIFY_N
        with sp.span("model.load_model", t):
            model, _ = load_model(run.work / "d1.json")
        joint = model.joint[0, 0]
        probs = []
        with sp.span("permutation.cycle_parameter_space", t):
            classes = cycle_parameter_space(n)
            flip = Permutation(tuple(reversed(range(n))))
        with sp.span("oracle.exact_typicality_probability", t):
            probs.append(exact_typicality_probability(
                joint, n, Permutation.identity(n), VERIFY_EPS))
        for m, lengths in classes:
            run.classes.add((m, lengths))
            with sp.span("permutation.standard_permutation", t):
                std = standard_permutation(m, lengths, n)
                conj = flip.compose(std).compose(flip.inverse())
            for pi, first in ((std, None), (conj, None), (std, std)):
                with sp.span("oracle.exact_typicality_probability", t):
                    probs.append(exact_typicality_probability(joint, n, pi, VERIFY_EPS,
                                                              pi_first=first))
        run.counts["outcomes"] += sum(p.outcomes for p in probs)
        run.counts["typical_outcomes"] += sum(p.typical_outcomes for p in probs)

    def finish(self, run: Run) -> None:
        """Each command's first invocation must re-run byte-identically."""
        for argv, outs, blobs in run.first.values():
            with run.spans.span("cli.rerun"):
                if self.invoke(argv, outs, run) != blobs:
                    run.failed += 1

    def peak_rss_mb(self) -> float:
        return rss_mb(os_children=True)


def rss_mb(os_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if os_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


DSBS = dsbs_joint(0.1)
TIGHT_EPS = 0.3  # inside the README's check-3 diagnosis range 0.2-0.4

WORKLOADS = {
    w.name: w for w in (
        CampaignWorkload(
            name="acceptance-campaign",
            models={"copy55": (copy_joint(2), (5, 5)),
                    "ind55": (uniform_product_joint(2), (5, 5))},
            campaigns=(Campaign("copy55", 8, 5, recount=5), Campaign("copy55", 10, 5),
                       Campaign("copy55", 12, 5), Campaign("ind55", 10, 5))),
        CampaignWorkload(
            name="csi-tight",
            models={"d3333": (DSBS, (3, 3, 3, 3)), "d444": (DSBS, (4, 4, 4)),
                    "d66": (DSBS, (6, 6))},
            campaigns=(Campaign("d3333", 12, 5, TIGHT_EPS, recount=5),
                       Campaign("d444", 12, 5, TIGHT_EPS, recount=1),
                       Campaign("d66", 12, 5, TIGHT_EPS))),
        CampaignWorkload(
            name="wsi-campaign",
            models={"d33": (DSBS, (3, 3)), "d43": (DSBS, (4, 3))},
            # four (3,3) trials per (4,3) trial put the median among the (3,3)
            # trials and the 90th percentile in the middle of the (4,3) ones
            campaigns=(Campaign("d33", 6, 4, mode="wsi", recount=1),
                       Campaign("d43", 7, 1, mode="wsi", recount=1))),
        CliWorkload(name="cli"),
    )
}
