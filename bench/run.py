"""commatch benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is imported from the checkout's src/ (found relative to this
file), so the command works from any directory of a checkout. The run:

1. times the workload's set-up in SETUP_PROBES fresh child processes (import,
   seeded input files, one warm-up operation) and keeps the median;
2. runs whole rounds of the workload's operations until --seconds have
   passed, checking every output;
3. prints, as the last line of stdout,
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 each
operation is followed by a replay of its layer calls, one span each; the run
reports per-layer metrics and writes the spans to
.bench_out/spans-<workload>-seed<n>.jsonl. Generated inputs live in a
temporary directory under .bench_work/ that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5


def probe_setup(name: str, seed: int, work: Path, env: dict):
    """One fresh-process set-up; None when the child fails."""
    work.mkdir()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed), str(work)],
            env=env, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(wl, run, setup: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "ops_per_s": (run.done / run.busy_s, "1/s"),
        "op_ms_p50": (statistics.median(run.op_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(run.op_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }


def per_layer(run, wall_s: float, setup: list[dict]) -> dict:
    from spans import span_cost_s

    sp, c = run.spans, run.counts

    def med_ms(name: str) -> float:
        d = sp.durations(name)
        return statistics.median(d) * 1000.0 if d else 0.0

    selfs = sp.self_times()
    matching = sp.durations("matcher.run_matching")
    exact_s = sum(sp.durations("oracle.exact_typicality_probability"))
    layers_s = sum(v for k, v in selfs.items() if k != "bench")
    return {
        "model.load_model_ms": (med_ms("model.load_model"), "ms"),
        "model.self_ms": (selfs.get("model", 0.0) * 1000.0, "ms"),
        "graphgen.sample_pair_ms": (med_ms("graphgen.sample_pair"), "ms"),
        "graphgen.anonymize_ms": (med_ms("graphgen.anonymize"), "ms"),
        "graphgen.slots": (c["slots"], "count"),
        "graphgen.self_ms": (selfs.get("graphgen", 0.0) * 1000.0, "ms"),
        "typicality.decide_us": (med_ms("typicality.decide") * 1000.0, "us"),
        "typicality.self_ms": (selfs.get("typicality", 0.0) * 1000.0, "ms"),
        "matcher.run_matching_ms_p50": (statistics.median(matching) * 1000.0, "ms"),
        "matcher.run_matching_ms_p90": (
            statistics.quantiles(matching, n=10, method="inclusive")[8] * 1000.0, "ms"),
        "matcher.candidates_per_s": (c["candidates"] / sum(matching), "1/s"),
        "matcher.candidates": (c["candidates"], "count"),
        "matcher.survival": (c["ambiguity"] / c["candidates"], "ratio"),
        "matcher.empty_sets": (c["empty_sets"], "count"),
        "matcher.truth_included": (c["truth_included"], "count"),
        "matcher.self_ms": (selfs.get("matcher", 0.0) * 1000.0, "ms"),
        "bounds.achievability_profile_ms": (med_ms("bounds.achievability_profile"), "ms"),
        "bounds.alpha_rows": (c["alpha_rows"], "count"),
        "bounds.self_ms": (selfs.get("bounds", 0.0) * 1000.0, "ms"),
        "oracle.outcomes": (c["outcomes"], "count"),
        "oracle.outcomes_per_s": (c["outcomes"] / exact_s if exact_s else 0.0, "1/s"),
        "oracle.typical_fraction": (
            c["typical_outcomes"] / c["outcomes"] if c["outcomes"] else 0.0, "ratio"),
        "oracle.self_ms": (selfs.get("oracle", 0.0) * 1000.0, "ms"),
        "permutation.cycle_classes": (len(run.classes), "count"),
        "permutation.self_ms": (selfs.get("permutation", 0.0) * 1000.0, "ms"),
        "cli.import_ms": (statistics.median(s["import_ms"] for s in setup), "ms"),
        "cli.import_numpy_ms": (
            statistics.median(s["import_numpy_ms"] for s in setup), "ms"),
        "cli.campaign_self_ms": (
            (c["campaign_wall_s"] - c["campaign_layer_s"]) * 1000.0 / c["campaign_trials"],
            "ms"),
        "cli.self_ms": (selfs.get("cli", 0.0) * 1000.0, "ms"),
        "trace.ops_per_s": (run.done / run.busy_s, "1/s"),
        "trace.wall_ms": (wall_s * 1000.0, "ms"),
        "trace.accounted_pct": (100.0 * layers_s / wall_s, "%"),
        "trace.overhead_pct": (100.0 * len(sp.records) * span_cost_s() / wall_s, "%"),
        "trace.spans": (len(sp.records), "count"),
    }


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from spans import Spans
    from workloads import Run, child_env

    env = child_env()
    setup = [probe_setup(wl.name, seed, work / f"setup{k}", env)
             for k in range(SETUP_PROBES)]
    probe_failures = setup.count(None)
    setup = [s for s in setup if s is not None]
    if not setup:
        raise RuntimeError(f"{wl.name}: every set-up probe failed")

    wl.prepare(work, seed)
    run = Run(work=work, seeds=random.Random(seed), spans=Spans(trace))
    t0 = time.perf_counter()
    deadline = t0 + seconds
    while time.perf_counter() < deadline:
        for j in range(wl.round_len):
            with run.spans.span("bench.op", str(run.op_id)):
                wl.op(j, run.seeds.randrange(1, 2 ** 31), run)
            run.op_id += 1
    with run.spans.span("bench.check"):
        wl.finish(run)
    wall_s = time.perf_counter() - t0

    if trace:
        metrics = per_layer(run, wall_s, setup)
        run.spans.write_jsonl(ROOT / ".bench_out" / f"spans-{wl.name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end(wl, run, setup)
    attempted = run.attempted + SETUP_PROBES
    failed = run.failed + probe_failures
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "commatch" / "__init__.py").is_file():
        print(f"bench: no commatch package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
