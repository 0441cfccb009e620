"""Experiment orchestration: deterministic, seeded runs emitting CSV and JSON.

Every serialized output embeds the tool version and a hash of the resolved
configuration, and contains nothing nondeterministic: identical flags give
byte-identical files (wall-clock timings go to stderr only). Campaign trials
derive their seeds from (master seed, trial index), so results do not depend
on execution order.

Exit codes: 0 success, 1 runtime failure (empty ambiguity set, failed verify
checks), 2 validation/parameter errors, 3 size-guard refusals.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from . import __version__
from .bounds import (achievability_check, achievability_profile, converse_check,
                     er_achievability, er_converse, permuted_typicality_bound)
from .errors import (CommatchError, EmptyAmbiguitySetError, ParameterError,
                     SizeGuardError, ValidationError)
from .graphgen import anonymize, load_instance, sample_pair, save_instance
from .matcher import DEFAULT_CANDIDATE_CAP, run_matching
from .model import CommunityLayout, load_model
from .oracle import exact_typicality_probability
from .permutation import (Permutation, cycle_parameter_space,
                          standard_permutation, to_one_based)
from .typicality import DEFAULT_KAPPA, default_epsilon

_MASK64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15


def trial_seed(master: int, index: int) -> int:
    """Deterministic per-trial seed; any injection of (master, index) serves."""
    return (master + (index + 1) * _GOLD) & _MASK64


def _config_hash(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _file_sha256(path: str) -> str:
    """sha256 of a model or instance file's bytes, which a config hash keys on
    so that it follows the file's contents and not the path it was read from."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as e:
        raise ValidationError([f"cannot read {path}: {e}"]) from None


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bool_str(b: bool) -> str:
    return "true" if b else "false"


def _parse_eps(value: str):
    if value == "auto":
        return None
    return float(value)


def _resolve_eps(eps: Optional[float], n: int, kappa: float) -> float:
    out = eps if eps is not None else default_epsilon(n, kappa)
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
    runtime_ms: float  # in-process diagnostic, never serialized
    error: str


def run_campaign(cfg: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Seeded Monte Carlo matching trials plus an accuracy summary.

    Matcher errors are recorded on the trial (empty accuracy, error column)
    rather than aborting the campaign.
    """
    if cfg.trials < 1:
        raise ParameterError(f"trial count must be >= 1, got {cfg.trials}")
    model, base_layout = load_model(cfg.model_path)
    layout = CommunityLayout.contiguous(base_layout.scaled_sizes(cfg.n))
    eps = _resolve_eps(cfg.eps, cfg.n, cfg.kappa)

    def one(i: int) -> TrialRecord:
        s = trial_seed(cfg.master_seed, i)
        t0 = time.perf_counter()
        try:
            pair = sample_pair(model, layout, s)
            inst = anonymize(pair, cfg.mode, s)
            res = run_matching(inst, eps, seed=s, cap=cfg.cap)
            return TrialRecord(
                trial=i, seed=s, mode=cfg.mode, eps=eps,
                ambiguity_size=res.diagnostics.ambiguity_size,
                truth_included=res.diagnostics.truth_included,
                accuracy=res.accuracy,
                runtime_ms=(time.perf_counter() - t0) * 1000.0,
                error="",
            )
        except CommatchError as e:
            return TrialRecord(
                trial=i, seed=s, mode=cfg.mode, eps=eps,
                ambiguity_size=0, truth_included=False, accuracy=None,
                runtime_ms=(time.perf_counter() - t0) * 1000.0,
                error=f"{type(e).__name__}: {e}",
            )

    records = [one(i) for i in range(cfg.trials)]

    scored = [r.accuracy for r in records if r.accuracy is not None]
    quants = None
    if scored:
        q = np.quantile(np.asarray(scored), [0.1, 0.5, 0.9])
        quants = {"q10": float(q[0]), "q50": float(q[1]), "q90": float(q[2])}
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
    if not args.out:
        raise ParameterError("generate writes an instance file; pass --out")
    model, layout = load_model(args.model)
    shuffle = args.shuffle_seed if args.shuffle_seed is not None else args.seed
    pair = sample_pair(model, layout, args.seed)
    inst = anonymize(pair, args.mode, shuffle)
    h = _config_hash({"command": "generate", "model": _file_sha256(args.model),
                      "mode": args.mode, "seed": args.seed, "shuffle_seed": shuffle})
    save_instance(inst, args.out, extra={"tool_version": __version__, "config_hash": h})
    return 0


def _cmd_match(args) -> int:
    inst = load_instance(args.input, mode=args.mode)
    eps = _resolve_eps(args.eps, inst.n, args.kappa)
    res = run_matching(inst, eps, seed=args.seed, cap=args.cap)
    d = res.diagnostics
    doc = {
        "mode": d.mode,
        "n": inst.n,
        "eps": d.eps,
        "ambiguity_size": d.ambiguity_size,
        "candidate_space": d.candidate_space,
        "truth_included": d.truth_included,
        "accuracy": res.accuracy,
        "labeling": to_one_based(res.labeling),
        "config_hash": _config_hash({
            "command": "match", "input": _file_sha256(args.input), "mode": args.mode,
            "eps": eps, "kappa": args.kappa, "seed": args.seed, "cap": args.cap}),
        "tool_version": __version__,
    }
    print(f"matched in {d.wall_time_ms:.1f} ms", file=sys.stderr)
    _emit(_json_text(doc), args.out)
    return 0


def _cmd_region(args) -> int:
    model, layout = load_model(args.model)
    rows = achievability_profile(model, layout, args.n, args.delta, args.grid)
    worst = min(rows, key=lambda r: r.margin_bits)
    h = _config_hash({"command": "region", "model": _file_sha256(args.model), "n": args.n,
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
    model, layout = load_model(args.model)
    v = converse_check(model, layout, args.n)
    doc = {
        "n": v.n,
        "lhs_bits": v.lhs_bits,
        "rhs_bits": v.rhs_bits,
        "impossible": v.impossible,
        "config_hash": _config_hash({"command": "converse", "model": _file_sha256(args.model),
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
    model, layout = load_model(args.model)
    if layout.c != 1:
        raise ValidationError(["verify needs a single-community model"])
    joint = model.joint[0, 0]
    n, eps = args.n, args.eps
    lines = []
    failures = 0
    if args.check == "prop1":
        ident = Permutation.identity(n)
        base = exact_typicality_probability(joint, n, ident, eps)
        flip = Permutation(tuple(reversed(range(n))))
        for m, lengths in cycle_parameter_space(n):
            std = standard_permutation(m, lengths, n)
            conj = flip.compose(std).compose(flip.inverse())
            p_std = exact_typicality_probability(joint, n, std, eps)
            p_conj = exact_typicality_probability(joint, n, conj, eps)
            p_both = exact_typicality_probability(joint, n, std, eps, pi_first=std)
            ok = _equal_probs(p_std, p_conj) and _equal_probs(p_both, base)
            failures += 0 if ok else 1
            lines.append(
                f"m={m} lengths={lengths} p={p_std.value} "
                f"class_invariant={_bool_str(_equal_probs(p_std, p_conj))} "
                f"joint_permutation_invariant={_bool_str(_equal_probs(p_both, base))} "
                f"{'PASS' if ok else 'FAIL'}")
    else:  # thm1
        for alpha in (0.0, 1.0 / n, 0.5):
            m = round(alpha * n)
            if n - m == 1:
                continue
            for mm, lengths in cycle_parameter_space(n):
                if mm != m:
                    continue
                pi = standard_permutation(m, lengths, n)
                p = exact_typicality_probability(joint, n, pi, eps)
                bound = permuted_typicality_bound(n, m / n, eps, joint).bound_log2
                ok = p.as_float <= 2.0 ** bound
                failures += 0 if ok else 1
                lines.append(
                    f"alpha={m}/{n} lengths={lengths} p={p.as_float!r} "
                    f"bound_log2={bound!r} {'PASS' if ok else 'FAIL'}")
    lines.append(f"checked={len(lines)} failures={failures}")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if failures else 0


def _cmd_campaign(args) -> int:
    if not args.out:
        raise ParameterError("campaign writes <prefix>.csv and <prefix>.summary.json; pass --out")
    cfg = ExperimentConfig(
        model_path=args.model, n=args.n, mode=args.mode, trials=args.trials,
        master_seed=args.seed, eps=args.eps, kappa=args.kappa, cap=args.cap,
    )
    records, summary = run_campaign(cfg)
    h = _config_hash({"command": "campaign", "model": _file_sha256(cfg.model_path), "n": cfg.n,
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
    total_ms = sum(r.runtime_ms for r in records)
    print(f"{cfg.trials} trials in {total_ms:.0f} ms", file=sys.stderr)
    return 0


def _cmd_scan(args) -> int:
    model, layout = load_model(args.model)
    ns = [int(v) for v in args.n_list.split(",") if v]
    if not ns:
        raise ParameterError("empty --n-list")
    h = _config_hash({"command": "scan", "model": _file_sha256(args.model), "n_list": ns,
                      "delta": args.delta, "grid": args.grid})
    table = []
    for n in ns:
        if layout.c == 1:
            # single-community closed forms
            a = er_achievability(model.joint[0, 0], n, args.delta)
            v = er_converse(model.joint[0, 0], n)
        else:
            a = achievability_check(model, layout, n, args.delta, args.grid)
            v = converse_check(model, layout, n)
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

    g = sub.add_parser("generate", parents=[seed, common],
                       help="sample a correlated pair and write an anonymized instance")
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
    m.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    m.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP)
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

    k = sub.add_parser("campaign", parents=[seed, common], help="seeded matching trials")
    k.add_argument("--model", required=True)
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--mode", choices=("csi", "wsi"), default="csi")
    k.add_argument("--trials", type=int, required=True)
    k.add_argument("--eps", type=_parse_eps, default=None)
    k.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    k.add_argument("--cap", type=int, default=DEFAULT_CANDIDATE_CAP)
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
    args = _build_parser().parse_args(argv)
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
