"""Experiment orchestration: deterministic, seeded runs emitting CSV and JSON.

Every serialized output but `verify`'s plain-text report embeds the tool
version and a hash of the resolved configuration, and none contains anything
nondeterministic: identical flags give byte-identical files (wall-clock
timings go to stderr only). Campaign trials derive their seeds from (master
seed, trial index), so results do not depend on execution order. They run in
chunks, each sampled in one pass and matched in one call. A chunk the matcher
refuses gives each of its trials the same error row, an empty ambiguity set
is the only error one trial meets on its own, and the campaign goes on.

Exit codes: 0 success, 1 runtime failure (empty ambiguity set, failed verify
checks), 2 validation/parameter and argument errors, 3 size-guard refusals;
`main` returns them, `--help` (0) included, and raises none as SystemExit.

Each handler imports the modules it calls, so a process loads only its
subcommand's: `--help` and argument errors load no numpy and no module but
`errors`. Each module is resolved once per process (`_lib`), so an
in-process caller that runs many commands pays its import lookups once. The
parser leaves `--kappa` and `--cap` None, and the handlers fill in
`typicality.DEFAULT_KAPPA` and `matcher.DEFAULT_CANDIDATE_CAP` before
anything is hashed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from . import __version__
from .errors import (CommatchError, EmptyAmbiguitySetError, ParameterError,
                     SizeGuardError, ValidationError)

_MASK64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def trial_seed(master: int, index: int) -> int:
    """Deterministic per-trial seed; any injection of (master, index) serves."""
    return (master + (index + 1) * _GOLD) & _MASK64


@lru_cache(maxsize=None)
def _lib(name: str):
    """The package's submodule `name`, imported on the first request and then
    returned from the cache, without an import statement's lookups."""
    return importlib.import_module(f".{name}", __package__)


def _config_hash(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _read_hashed(path: str, kind: str) -> tuple[bytes, str]:
    """A model or instance file's bytes, read once, and their sha256, which a
    config hash keys on so that it follows the very contents parsed and not
    the path they were read from."""
    data = _lib("model").read_file(path, kind)
    return data, hashlib.sha256(data).hexdigest()


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _lib("model").write_file(out, text, "output")
    else:
        sys.stdout.write(text)


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def _parse_eps(value: str):
    if value == "auto":
        return None
    return float(value)


def _finite(name: str, value: Optional[float]) -> Optional[float]:
    """value itself, unless it is nan or infinite."""
    if value is not None and not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value}")
    return value


def _check_cap(cap: int) -> None:
    """Refuse a candidate cap below 1, which no job could meet."""
    if cap < 1:
        raise ParameterError(f"cap must be >= 1, got {cap}")


def _resolve_defaults(args) -> None:
    """Fill in --kappa and --cap where the command line left them out. Their
    defaults are defined once, in typicality and matcher; the parser leaves
    them None so that it builds without importing either."""
    if args.kappa is None:
        args.kappa = _lib("typicality").DEFAULT_KAPPA
    if args.cap is None:
        args.cap = _lib("matcher").DEFAULT_CANDIDATE_CAP


def _resolve_eps(eps: Optional[float], n: int, kappa: float) -> float:
    _finite("kappa", kappa)
    out = _finite("eps", eps) if eps is not None else _lib("typicality").default_epsilon(n, kappa)
    if out < 0:
        raise ParameterError(f"eps must be nonnegative, got {out}")
    return out


# -- campaign -----------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    model_path: str
    n: int
    mode: str
    trials: int
    master_seed: int
    eps: Optional[float]  # None resolves through the kappa schedule
    kappa: float
    cap: int


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    mode: str
    eps: float
    ambiguity_size: int
    truth_included: bool
    accuracy: Optional[float]
    error: str


# Trials per chunk. A chunk pays the per-call cost of sampling and of the
# margin fold, of csi blocks or of wsi assignment pairs (tens of numpy calls
# on arrays of a few dozen entries), once.
# Past 64 trials the saving per trial flattens, while what a chunk holds at
# once keeps growing with it: at n = 100 its (trials, n, n) int64 pair values
# are 5 MB per graph. Matched sets are built and dropped one at a time.
_TRIAL_CHUNK = 64


def _quantiles(values: list[float], qs: Iterable[float]) -> list[float]:
    """np.quantile's default (linear) quantiles of values, bit for bit, with
    numpy's lerp form; np.quantile itself would import numpy.ma."""
    v = sorted(values)
    out = []
    for q in qs:
        h = (len(v) - 1) * q
        if h >= len(v) - 1:
            out.append(v[-1])
            continue
        i = math.floor(h)
        a, b, t = v[i], v[i + 1], h - i
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return out


def run_campaign(cfg: ExperimentConfig,
                 model_bytes: Optional[bytes] = None) -> tuple[list[TrialRecord], dict]:
    """Seeded Monte Carlo matching trials plus an accuracy summary.

    model_bytes are the model file's contents when the caller has read them
    already; otherwise cfg.model_path is read. Trials run in chunks of
    `_TRIAL_CHUNK`: one `sample_pairs` draw and one `match_instances` call
    each. Matcher errors are recorded on the trial (empty accuracy, error
    column) rather than aborting the campaign.
    """
    import numpy as np

    graphgen, models = _lib("graphgen"), _lib("model")
    if cfg.trials < 1:
        raise ParameterError(f"trial count must be >= 1, got {cfg.trials}")
    _check_cap(cfg.cap)
    if model_bytes is None:
        model_bytes = models.read_file(cfg.model_path, "model")
    model, base_layout = models.parse_model(model_bytes)
    layout = models.CommunityLayout.contiguous(base_layout.scaled_sizes(cfg.n))
    eps = _resolve_eps(cfg.eps, cfg.n, cfg.kappa)

    records = []
    for c0 in range(0, cfg.trials, _TRIAL_CHUNK):
        trials = range(c0, min(c0 + _TRIAL_CHUNK, cfg.trials))
        seeds = [trial_seed(cfg.master_seed, i) for i in trials]
        try:
            insts = [graphgen.anonymize(pair, cfg.mode, s)
                     for pair, s in zip(graphgen.sample_pairs(model, layout, seeds), seeds)]
            results = _lib("matcher").match_instances(insts, eps, seeds, cfg.cap)
        except CommatchError as e:  # met by every trial alike
            results = [e] * len(seeds)
        for i, s, res in zip(trials, seeds, results):
            if isinstance(res, CommatchError):
                records.append(TrialRecord(
                    trial=i, seed=s, mode=cfg.mode, eps=eps,
                    ambiguity_size=0, truth_included=False, accuracy=None,
                    error=f"{type(res).__name__}: {res}"))
            else:
                records.append(TrialRecord(
                    trial=i, seed=s, mode=cfg.mode, eps=eps,
                    ambiguity_size=res.diagnostics.ambiguity_size,
                    truth_included=res.diagnostics.truth_included,
                    accuracy=res.accuracy, error=""))

    scored = [r.accuracy for r in records if r.accuracy is not None]
    quants = None
    if scored:
        q = _quantiles(scored, (0.1, 0.5, 0.9))
        quants = {"q10": q[0], "q50": q[1], "q90": q[2]}
    summary = {
        "trials": cfg.trials,
        "n": cfg.n,
        "mode": cfg.mode,
        "eps": eps,
        "failed_trials": sum(1 for r in records if r.error),
        "mean_accuracy": float(np.mean(scored)) if scored else None,
        "accuracy_quantiles": quants,
        "truth_inclusion_rate": sum(1 for r in records if r.truth_included) / cfg.trials,
    }
    return records, summary


def _csv_text(meta: Iterable[str], header: list[str], rows: Iterable[list]) -> str:
    """A CSV document: one "# " line per meta entry, the header, the rows."""
    buf = io.StringIO()
    for line in meta:
        buf.write(f"# {line}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# -- subcommand handlers ------------------------------------------------------

def _cmd_generate(args) -> int:
    graphgen = _lib("graphgen")
    data, digest = _read_hashed(args.model, "model")
    model, layout = _lib("model").parse_model(data)
    shuffle = args.shuffle_seed if args.shuffle_seed is not None else args.seed
    pair = graphgen.sample_pair(model, layout, args.seed)
    inst = graphgen.anonymize(pair, args.mode, shuffle)
    h = _config_hash({"command": "generate", "model": digest,
                      "mode": args.mode, "seed": args.seed, "shuffle_seed": shuffle})
    graphgen.save_instance(inst, args.out, extra={"tool_version": __version__, "config_hash": h})
    return 0


def _cmd_match(args) -> int:
    _resolve_defaults(args)
    _check_cap(args.cap)
    data, digest = _read_hashed(args.input, "instance")
    inst = _lib("graphgen").parse_instance(data, mode=args.mode)
    eps = _resolve_eps(args.eps, inst.n, args.kappa)
    res = _lib("matcher").run_matching(inst, eps, seed=args.seed, cap=args.cap)
    d = res.diagnostics
    doc = {
        "mode": d.mode,
        "n": inst.n,
        "eps": d.eps,
        "ambiguity_size": d.ambiguity_size,
        "candidate_space": d.candidate_space,
        "truth_included": d.truth_included,
        "accuracy": res.accuracy,
        "labeling": _lib("permutation").to_one_based(res.labeling),
        "config_hash": _config_hash({
            "command": "match", "input": digest, "mode": args.mode,
            "eps": eps, "kappa": args.kappa, "seed": args.seed, "cap": args.cap}),
        "tool_version": __version__,
    }
    print(f"matched in {d.wall_time_ms:.1f} ms", file=sys.stderr)
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_region(args) -> int:
    data, digest = _read_hashed(args.model, "model")
    model, layout = _lib("model").parse_model(data)
    rows = _lib("bounds").achievability_profile(model, layout, args.n, args.delta, args.grid)
    worst = min(rows, key=lambda r: r.margin_bits)
    h = _config_hash({"command": "region", "model": digest, "n": args.n,
                      "delta": args.delta, "grid": args.grid})
    meta = [f"tool_version={__version__}", f"config_hash={h}",
            f"n={args.n} delta={args.delta!r} grid={args.grid!r}",
            f"satisfied={_bool_str(worst.margin_bits >= 0)} "
            f"worst_alpha={worst.alpha!r} margin_bits={worst.margin_bits!r}"]
    _emit(_csv_text(meta, ["alpha", "lhs_bits", "rhs_bits", "margin_bits"],
                    ([repr(r.alpha), repr(r.lhs_bits), repr(r.rhs_bits), repr(r.margin_bits)]
                     for r in rows)), args.out)
    return 0


def _cmd_converse(args) -> int:
    data, digest = _read_hashed(args.model, "model")
    model, layout = _lib("model").parse_model(data)
    v = _lib("bounds").converse_check(model, layout, args.n)
    doc = {
        "n": v.n,
        "lhs_bits": v.lhs_bits,
        "rhs_bits": v.rhs_bits,
        "impossible": v.impossible,
        "config_hash": _config_hash({"command": "converse", "model": digest,
                                     "n": args.n}),
        "tool_version": __version__,
    }
    _emit(_json_text(doc), args.out)
    return 0


def _equal_probs(a, b) -> bool:
    if a.exact and b.exact:
        return a.value == b.value
    return abs(a.as_float - b.as_float) <= 1e-12


def _cmd_verify(args) -> int:
    exact = _lib("oracle").exact_typicality_probability
    perms = _lib("permutation")
    model, layout = _lib("model").load_model(args.model)
    if layout.c != 1:
        raise ValidationError(["verify needs a single-community model"])
    joint = model.joint[0, 0]
    n, eps = args.n, _finite("eps", args.eps)
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if eps < 0:
        raise ParameterError(f"eps must be nonnegative, got {eps}")
    lines = []
    failures = 0
    if args.check == "prop1":
        ident = perms.Permutation.identity(n)
        base = exact(joint, n, ident, eps)
        flip = perms.Permutation(tuple(reversed(range(n))))
        for m, lengths in perms.cycle_parameter_space(n):
            std = perms.standard_permutation(m, lengths, n)
            conj = flip.compose(std).compose(flip.inverse())
            p_std = exact(joint, n, std, eps)
            p_conj = exact(joint, n, conj, eps)
            p_both = exact(joint, n, std, eps, pi_first=std)
            ok = _equal_probs(p_std, p_conj) and _equal_probs(p_both, base)
            failures += 0 if ok else 1
            lines.append(
                f"m={m} lengths={lengths} p={p_std.value} "
                f"class_invariant={_bool_str(_equal_probs(p_std, p_conj))} "
                f"joint_permutation_invariant={_bool_str(_equal_probs(p_both, base))} "
                f"{'PASS' if ok else 'FAIL'}")
    else:  # thm1
        bound_of = _lib("bounds").permuted_typicality_bound
        for alpha in (0.0, 1.0 / n, 0.5):
            m = round(alpha * n)
            if n - m == 1:
                continue
            for mm, lengths in perms.cycle_parameter_space(n):
                if mm != m:
                    continue
                pi = perms.standard_permutation(m, lengths, n)
                p = exact(joint, n, pi, eps)
                bound = bound_of(n, m / n, eps, joint).bound_log2
                ok = p.as_float <= 2.0 ** bound
                failures += 0 if ok else 1
                lines.append(
                    f"alpha={m}/{n} lengths={lengths} p={p.as_float!r} "
                    f"bound_log2={bound!r} {'PASS' if ok else 'FAIL'}")
    lines.append(f"checked={len(lines)} failures={failures}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def _cmd_campaign(args) -> int:
    _resolve_defaults(args)
    cfg = ExperimentConfig(
        model_path=args.model, n=args.n, mode=args.mode, trials=args.trials,
        master_seed=args.seed, eps=args.eps, kappa=args.kappa, cap=args.cap,
    )
    data, digest = _read_hashed(cfg.model_path, "model")
    t0 = time.perf_counter()
    records, summary = run_campaign(cfg, data)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    h = _config_hash({"command": "campaign", "model": digest, "n": cfg.n,
                      "mode": cfg.mode, "trials": cfg.trials, "seed": cfg.master_seed,
                      "eps": cfg.eps, "kappa": cfg.kappa, "cap": cfg.cap})
    _emit(_csv_text([f"tool_version={__version__}", f"config_hash={h}"],
                    ["trial", "seed", "mode", "eps", "ambiguity_size",
                     "truth_included", "accuracy", "error"],
                    ([r.trial, r.seed, r.mode, repr(r.eps), r.ambiguity_size,
                      _bool_str(r.truth_included),
                      "" if r.accuracy is None else repr(r.accuracy), r.error]
                     for r in records)), args.out + ".csv")
    summary.update({"config_hash": h, "tool_version": __version__})
    _emit(_json_text(summary), args.out + ".summary.json")
    print(f"{cfg.trials} trials in {wall_ms:.0f} ms", file=sys.stderr)
    return 0


def _cmd_scan(args) -> int:
    bounds = _lib("bounds")
    data, digest = _read_hashed(args.model, "model")
    model, layout = _lib("model").parse_model(data)
    try:
        ns = [int(v) for v in args.n_list.split(",") if v]
    except ValueError:
        raise ParameterError(f"--n-list needs integers, got {args.n_list!r}") from None
    if not ns:
        raise ParameterError("empty --n-list")
    _finite("grid", args.grid)
    h = _config_hash({"command": "scan", "model": digest, "n_list": ns,
                      "delta": args.delta, "grid": args.grid})
    table = []
    for n in ns:
        if layout.c == 1:
            # single-community closed forms
            a = bounds.er_achievability(model.joint[0, 0], n, args.delta)
            v = bounds.er_converse(model.joint[0, 0], n)
        else:
            a = bounds.achievability_check(model, layout, n, args.delta, args.grid)
            v = bounds.converse_check(model, layout, n)
        table.append([n, _bool_str(a.satisfied), repr(a.margin_bits),
                      _bool_str(v.impossible), repr(v.lhs_bits), repr(v.rhs_bits)])
    _emit(_csv_text([f"tool_version={__version__}", f"config_hash={h}",
                     f"delta={args.delta!r} grid={args.grid!r}"],
                    ["n", "achievable", "ach_margin_bits", "impossible",
                     "conv_lhs_bits", "conv_rhs_bits"], table), args.out)
    return 0


# -- argument parsing ---------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")

    p = argparse.ArgumentParser(
        prog="commatch",
        description="Correlated community-graph generation, typicality matching, "
                    "and region checks.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", parents=[seed],
                       help="sample a correlated pair and write an anonymized instance")
    g.add_argument("--out", required=True, help="instance file to write")
    g.add_argument("--model", required=True)
    g.add_argument("--mode", choices=("csi", "wsi"), default="csi")
    g.add_argument("--shuffle-seed", type=int, default=None,
                   help="relabeling seed (default: --seed)")
    g.set_defaults(func=_cmd_generate)

    m = sub.add_parser("match", parents=[seed, common], help="run the typicality matcher")
    m.add_argument("--input", required=True)
    m.add_argument("--mode", choices=("csi", "wsi"), default=None,
                   help="override the mode recorded in the instance file")
    m.add_argument("--eps", type=_parse_eps, default=None,
                   help="typicality slack, or 'auto' for the schedule (default)")
    m.add_argument("--kappa", type=float, default=None)
    m.add_argument("--cap", type=int, default=None)
    m.set_defaults(func=_cmd_match)

    r = sub.add_parser("region", parents=[common],
                       help="achievability sweep over fixed-point fractions")
    r.add_argument("--model", required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--delta", type=float, default=0.01)
    r.add_argument("--grid", type=float, default=None, help="allocation step (default 1/n)")
    r.set_defaults(func=_cmd_region)

    c = sub.add_parser("converse", parents=[common], help="impossibility check")
    c.add_argument("--model", required=True)
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(func=_cmd_converse)

    v = sub.add_parser("verify", parents=[common],
                       help="exact oracle checks on a single-community model")
    v.add_argument("--check", choices=("prop1", "thm1"), required=True,
                   help="prop1: permutation invariances; thm1: exponent bound")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--eps", type=float, required=True)
    v.add_argument("--model", required=True)
    v.set_defaults(func=_cmd_verify)

    k = sub.add_parser("campaign", parents=[seed], help="seeded matching trials")
    k.add_argument("--out", required=True, metavar="PREFIX",
                   help="path prefix of the two files written: PREFIX.csv and PREFIX.summary.json")
    k.add_argument("--model", required=True)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--mode", choices=("csi", "wsi"), default="csi")
    k.add_argument("--trials", type=int, required=True)
    k.add_argument("--eps", type=_parse_eps, default=None)
    k.add_argument("--kappa", type=float, default=None)
    k.add_argument("--cap", type=int, default=None)
    k.set_defaults(func=_cmd_campaign)

    s = sub.add_parser("scan", parents=[common],
                       help="achievability/converse verdicts across n")
    s.add_argument("--model", required=True)
    s.add_argument("--n-list", required=True, help="comma-separated n values")
    s.add_argument("--delta", type=float, default=0.01)
    s.add_argument("--grid", type=float, default=None)
    s.set_defaults(func=_cmd_scan)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:  # argparse: 2 for usage errors, 0 after --help
        return e.code
    try:
        return args.func(args)
    except ValidationError as e:
        for v in e.violations:
            print(f"invalid input: {v}", file=sys.stderr)
        return 2
    except ParameterError as e:
        print(f"bad parameters: {e}", file=sys.stderr)
        return 2
    except SizeGuardError as e:
        print(f"refusing oversized job: {e}", file=sys.stderr)
        return 3
    except EmptyAmbiguitySetError as e:
        print(f"matching failed: {e}", file=sys.stderr)
        return 1
    except CommatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
