"""Golden digests of `commatch campaign` outputs.

Each entry runs one campaign in-process through `cli.main` and records the
sha256 of the CSV and of the summary JSON it writes. The configurations are
those of the benchmark's campaign workloads (copied here, not imported) at two
master seeds each, plus csi and wsi campaigns whose every chunk the size
guard refuses, csi campaigns whose eps leaves a dead block in some trials, wsi
campaigns whose eps leaves pairs of assignments undecided or dead, and csi
campaigns whose grids count no inter block (every axis full, or some cut by
its intra block).

A second table records `commatch match` on instances sampled in-process with
contiguous and alternating community layouts: the exit code of each run, and
the sha256 of the document wherever it exits 0.

A third table records the `region`, `converse`, `scan` and `verify` documents
written through `--out`: the exit code of each run and the sha256 of the file.

A fourth table records the help and usage texts: the exit code and the sha256
of stdout for `--help` and each subcommand's `--help`, and of stderr for a few
argument errors, with COLUMNS pinned to 80 because argparse wraps help text to
the terminal width.

A fifth table records ambiguity sets without the CLI: for instances sampled
in-process, the sha256 of each csi grid's kept axis ranks and packed-bit mask
(the ranks alone for a product grid), and of each wsi set's packed-bit mask.
It covers dsbs(0.1), copy and uniform product models at (3,3), (4,3),
(2,2,2), (3,2,2) and (4,4) at four eps, (2,2,1,1,1) at three (csi only), the
csi configurations of the bench's tight campaigns, and an l = 3 copy model
whose blocks bind several windows each.

A sixth table records `sample_pair` draws: the sha256 of each graph's value
matrix for the community layouts of the bench's campaigns and one
alternating layout, at both master seeds and at a seed of 2^63 or more.

Regenerate the committed file with

    PYTHONPATH=src python tests/golden_campaigns.py

A regeneration is an output change: log it, with its reason and the entries
that moved, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from commatch.cli import main
from commatch.graphgen import anonymize, sample_pair, save_instance
from commatch.matcher import ambiguity_set_csi, ambiguity_set_wsi
from commatch.model import (CommunityLayout, copy_joint, dsbs_joint, homogeneous_model,
                            save_model, uniform_product_joint)

GOLDEN = Path(__file__).with_name("golden_campaigns.json")
SEEDS = (0, 2**40 + 7)

MODELS = {
    "copy55": (copy_joint(2), (5, 5)),
    "ind55": (uniform_product_joint(2), (5, 5)),
    "d55": (dsbs_joint(0.1), (5, 5)),
    "d3333": (dsbs_joint(0.1), (3, 3, 3, 3)),
    "d444": (dsbs_joint(0.1), (4, 4, 4)),
    "d66": (dsbs_joint(0.1), (6, 6)),
    "d33": (dsbs_joint(0.1), (3, 3)),
    "d43": (dsbs_joint(0.1), (4, 3)),
    "d222": (dsbs_joint(0.1), (2, 2, 2)),
    "copy444": (copy_joint(2), (4, 4, 4)),
    "copy77": (copy_joint(2), (7, 7)),
    "d6": (dsbs_joint(0.1), (6,)),
    "copy6": (copy_joint(2), (6,)),
    "ind4": (uniform_product_joint(2), (4,)),
}

# name -> (model, n, mode, trials, extra flags)
CAMPAIGNS = {
    "copy55-n8": ("copy55", 8, "csi", 5, []),
    "copy55-n10": ("copy55", 10, "csi", 5, []),
    "copy55-n12": ("copy55", 12, "csi", 5, []),
    "ind55-n10": ("ind55", 10, "csi", 5, []),
    "d3333-n12-eps0.3": ("d3333", 12, "csi", 5, ["--eps", "0.3"]),
    "d444-n12-eps0.3": ("d444", 12, "csi", 5, ["--eps", "0.3"]),
    "d66-n12-eps0.3": ("d66", 12, "csi", 5, ["--eps", "0.3"]),
    "d33-n6-wsi": ("d33", 6, "wsi", 4, []),
    "d43-n7-wsi": ("d43", 7, "wsi", 1, []),
    "d55-n8": ("d55", 8, "csi", 4, []),
    # (4,4) has 576 community-preserving candidates: every trial is refused
    "copy55-n8-cap100": ("copy55", 8, "csi", 3, ["--cap", "100"]),
    # eps 0.15 leaves an empty set in some trials and 0.1 in every one
    "d66-n12-eps0.15": ("d66", 12, "csi", 6, ["--eps", "0.15"]),
    "d444-n12-eps0.1": ("d444", 12, "csi", 6, ["--eps", "0.1"]),
    # wsi verdicts off the default eps: at 0.3 no pair passes, so most trials
    # count every labeling and in the rest every pair is dead and the set
    # empty; at 0.2 every pair is dead; (4,3) at 0.45 and the three
    # communities at 0.6 walk, and some trials then count what the walk left
    "d33-n6-wsi-eps0.3": ("d33", 6, "wsi", 6, ["--eps", "0.3"]),
    "d33-n6-wsi-eps0.2": ("d33", 6, "wsi", 6, ["--eps", "0.2"]),
    "d43-n7-wsi-eps0.45": ("d43", 7, "wsi", 6, ["--eps", "0.45"]),
    "d222-n6-wsi-eps0.6": ("d222", 6, "wsi", 6, ["--eps", "0.6"]),
    # 720 labelings x 20 assignments: every trial is refused
    "d33-n6-wsi-cap1000": ("d33", 6, "wsi", 6, ["--cap", "1000"]),
    # grids that count no inter block: three full axes; two full axes of
    # 5,040 rows under a raised cap; and at eps 0.45 most trials are dead,
    # some count an inter block, and a few (trials 8 and 22 at seed 0, 22
    # and 24 at the other) cut axes by their intra blocks and count nothing
    "copy444-n12": ("copy444", 12, "csi", 5, []),
    "copy77-n14-cap3e7": ("copy77", 14, "csi", 2, ["--cap", "30000000"]),
    "d3333-n12-eps0.45": ("d3333", 12, "csi", 40, ["--eps", "0.45"]),
}

# `match` documents: name -> (sizes, label-side membership); each is run at
# every eps of MATCH_EPS on the instance dsbs(0.1) draws with seed 0
MATCHES = {
    "33": ((3, 3), (0, 0, 0, 1, 1, 1)),
    "33-alt": ((3, 3), (0, 1, 0, 1, 0, 1)),
    "44": ((4, 4), (0, 0, 0, 0, 1, 1, 1, 1)),
    "44-alt": ((4, 4), (0, 1, 0, 1, 0, 1, 0, 1)),
    "222": ((2, 2, 2), (0, 0, 1, 1, 2, 2)),
    "222-alt": ((2, 2, 2), (0, 1, 2, 0, 1, 2)),
}
MATCH_EPS = ("1.0", "auto", "0.3")

# documents written through --out: name -> argv, where "{key}" is the path
# of the model file MODELS[key]; single-community models take scan's closed
# forms, and the rest its allocation sweep
DOCUMENTS = {
    "region-d55-n10": ["region", "--model", "{d55}", "--n", "10"],
    "region-d55-n10-grid0.2": ["region", "--model", "{d55}", "--n", "10",
                               "--delta", "0.2", "--grid", "0.2"],
    "region-d6-n20": ["region", "--model", "{d6}", "--n", "20"],
    "region-d3333-n12-grid0.25": ["region", "--model", "{d3333}", "--n", "12",
                                  "--grid", "0.25"],
    "converse-d55-n10": ["converse", "--model", "{d55}", "--n", "10"],
    "converse-d6-n100": ["converse", "--model", "{d6}", "--n", "100"],
    "converse-ind55-n10": ["converse", "--model", "{ind55}", "--n", "10"],
    "scan-d6": ["scan", "--model", "{d6}", "--n-list", "10,100,1000"],
    "scan-d55": ["scan", "--model", "{d55}", "--n-list", "10,20"],
    "scan-copy444-grid0.25": ["scan", "--model", "{copy444}", "--n-list", "12",
                              "--delta", "0.05", "--grid", "0.25"],
    "verify-prop1-ind4-n4": ["verify", "--check", "prop1", "--model", "{ind4}",
                             "--n", "4", "--eps", "0.25"],
    "verify-prop1-d6-n5": ["verify", "--check", "prop1", "--model", "{d6}",
                           "--n", "5", "--eps", "0.3"],
    "verify-thm1-d6-n4": ["verify", "--check", "thm1", "--model", "{d6}",
                          "--n", "4", "--eps", "0.25"],
    "verify-thm1-copy6-n6": ["verify", "--check", "thm1", "--model", "{copy6}",
                             "--n", "6", "--eps", "0.1"],
}

# help and usage texts: name -> (argv, the stream whose bytes are digested)
SUBCOMMANDS = ("generate", "match", "region", "converse", "verify", "campaign", "scan")
TEXTS = {
    "help": (["--help"], "stdout"),
    **{f"{sub}-help": ([sub, "--help"], "stdout") for sub in SUBCOMMANDS},
    "no-subcommand": ([], "stderr"),
    "unknown-subcommand": (["bogus"], "stderr"),
    "match-no-input": (["match"], "stderr"),
    "campaign-trials-x": (["campaign", "--trials", "x"], "stderr"),
}

# ambiguity sets: name -> (joint, sizes, eps or None for the default, seed,
# modes); the instance of each mode is anonymized from the pair drawn with
# the seed, shuffled with it too
MASK_JOINTS = {"d": dsbs_joint(0.1), "copy": copy_joint(2),
               "ind": uniform_product_joint(2), "copy3": copy_joint(3)}
MASKS = {
    f"{joint}/{'-'.join(map(str, sizes))}/eps{eps or 'auto'}/seed0":
        (joint, sizes, eps, 0, ("csi", "wsi"))
    for sizes in ((3, 3), (4, 3), (2, 2, 2), (3, 2, 2), (4, 4))
    for joint in ("d", "copy", "ind")
    for eps in (None, 0.3, 0.45, 0.6)
}
MASKS.update({
    # csi only: these wsi sets take 0.15-0.6 s each, a walk that counts
    # nothing at the default eps and folds whose every pair is dead after it
    **{f"d/2-2-1-1-1/eps{eps or 'auto'}/seed0": ("d", (2, 2, 1, 1, 1), eps, 0, ("csi",))
       for eps in (None, 0.3, 0.45)},
    # the tight campaigns' grids; these seeds count inter blocks
    "d/6-6/eps0.3/seed0": ("d", (6, 6), 0.3, 0, ("csi",)),
    "d/4-4-4/eps0.3/seed0": ("d", (4, 4, 4), 0.3, 0, ("csi",)),
    "d/3-3-3-3/eps0.3/seed7": ("d", (3, 3, 3, 3), 0.3, 7, ("csi",)),
    # intra blocks bind 5 and 9 windows, the inter block 5
    "copy3/5-5/eps0.25/seed1": ("copy3", (5, 5), 0.25, 1, ("csi",)),
})

# `sample_pair` draws: name -> (joint, sizes, label-side membership, None for
# the contiguous layout); each is drawn at every seed of PAIR_SEEDS
PAIRS = {
    "copy/4-4": ("copy", (4, 4), None),
    "copy/5-5": ("copy", (5, 5), None),
    "copy/6-6": ("copy", (6, 6), None),
    "ind/5-5": ("ind", (5, 5), None),
    "d/3-3-3-3": ("d", (3, 3, 3, 3), None),
    "d/4-4-4": ("d", (4, 4, 4), None),
    "d/6-6": ("d", (6, 6), None),
    "d/3-3": ("d", (3, 3), None),
    "d/4-3": ("d", (4, 3), None),
    "d/4-4-alt": ("d", (4, 4), (0, 1, 0, 1, 0, 1, 0, 1)),
}
PAIR_SEEDS = SEEDS + (2**63 + 5,)


def _save_models(work: Path) -> dict[str, str]:
    """Write every model of MODELS to work; the path of each, by key."""
    paths = {}
    for key, (joint, sizes) in MODELS.items():
        paths[key] = str(work / f"{key}.json")
        save_model(*homogeneous_model(joint, sizes), paths[key])
    return paths


def campaign_digests(work: Path) -> dict[str, dict[str, str]]:
    """sha256 of every golden campaign's CSV and summary bytes, run in work."""
    _save_models(work)
    out = {}
    for name, (model, n, mode, trials, extra) in CAMPAIGNS.items():
        for seed in SEEDS:
            prefix = work / "camp"
            argv = ["campaign", "--model", str(work / f"{model}.json"), "--n", str(n),
                    "--mode", mode, "--trials", str(trials), "--seed", str(seed),
                    "--out", str(prefix)] + extra
            if main(argv) != 0:
                raise RuntimeError(f"campaign {name} seed {seed} failed")
            out[f"{name}/seed{seed}"] = {
                suffix: hashlib.sha256(Path(f"{prefix}.{suffix}").read_bytes()).hexdigest()
                for suffix in ("csv", "summary.json")}
    return out


def match_digests(work: Path) -> dict[str, dict]:
    """Exit code of every golden `match` run, with the sha256 of its document
    wherever the code is 0."""
    out = {}
    for name, (sizes, membership) in MATCHES.items():
        model, _ = homogeneous_model(dsbs_joint(0.1), sizes)
        layout = CommunityLayout(sizes=sizes, membership=membership)
        inst = anonymize(sample_pair(model, layout, 0), "csi", 0)
        path = work / f"{name}.instance.json"
        save_instance(inst, path)
        for eps in MATCH_EPS:
            doc = work / "match.json"
            doc.unlink(missing_ok=True)
            code = main(["match", "--input", str(path), "--eps", eps, "--seed", "3",
                         "--out", str(doc)])
            entry = {"exit": code}
            if code == 0:
                entry["json"] = hashlib.sha256(doc.read_bytes()).hexdigest()
            out[f"{name}/eps{eps}"] = entry
    return out


def document_digests(work: Path) -> dict[str, dict]:
    """Exit code of every golden document run, with the sha256 of the file it
    writes through --out."""
    paths = _save_models(work)
    doc = work / "doc"
    out = {}
    for name, argv in DOCUMENTS.items():
        doc.unlink(missing_ok=True)
        code = main([a.format(**paths) for a in argv] + ["--out", str(doc)])
        out[name] = {"exit": code, "sha256": hashlib.sha256(doc.read_bytes()).hexdigest()}
    return out


def text_digests() -> dict[str, dict]:
    """Exit code of every golden help or usage run, with the sha256 of the
    stream it writes."""
    out = {}
    old = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for name, (argv, stream) in TEXTS.items():
            buf = {"stdout": io.StringIO(), "stderr": io.StringIO()}
            with contextlib.redirect_stdout(buf["stdout"]), \
                    contextlib.redirect_stderr(buf["stderr"]):
                code = main(argv)
            out[name] = {"exit": code, stream: hashlib.sha256(
                buf[stream].getvalue().encode()).hexdigest()}
    finally:
        if old is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = old
    return out


def _grid_digest(grid) -> str:
    """sha256 of a grid's kept axis ranks (every rank where an axis keeps
    them all) and of its packed-bit mask, shape included, if it has one."""
    h = hashlib.sha256()
    for ranks in grid.ranks:
        h.update(b"all;" if ranks is None else np.asarray(ranks, dtype="<i8").tobytes() + b";")
    if grid.mask is not None:
        h.update(repr(grid.mask.shape).encode() + np.packbits(grid.mask).tobytes())
    return h.hexdigest()


def mask_digests() -> dict[str, dict[str, str]]:
    """Digest of every golden ambiguity set, per mode."""
    build = {"csi": ambiguity_set_csi, "wsi": ambiguity_set_wsi}
    out = {}
    for name, (joint, sizes, eps, seed, modes) in MASKS.items():
        pair = sample_pair(*homogeneous_model(MASK_JOINTS[joint], sizes), seed)
        out[name] = {mode: _grid_digest(build[mode](anonymize(pair, mode, seed), eps).grid)
                     for mode in modes}
    return out


def pair_digests() -> dict[str, dict[str, str]]:
    """sha256 of both graphs' value matrices of every golden `sample_pair`
    draw."""
    out = {}
    for name, (joint, sizes, membership) in PAIRS.items():
        model, layout = homogeneous_model(MASK_JOINTS[joint], sizes)
        if membership is not None:
            layout = CommunityLayout(sizes=sizes, membership=membership)
        for seed in PAIR_SEEDS:
            pair = sample_pair(model, layout, seed)
            out[f"{name}/seed{seed}"] = {
                side: hashlib.sha256(np.ascontiguousarray(g, dtype="<i8").tobytes()).hexdigest()
                for side, g in (("g1", pair.g1), ("g2", pair.g2))}
    return out


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"versions": versions(), "campaigns": campaign_digests(Path(tmp)),
               "matches": match_digests(Path(tmp)),
               "documents": document_digests(Path(tmp)), "texts": text_digests(),
               "masks": mask_digests(), "pairs": pair_digests()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['campaigns'])} campaign, {len(doc['matches'])} match, "
          f"{len(doc['documents'])} document, {len(doc['texts'])} text and "
          f"{len(doc['masks'])} mask and {len(doc['pairs'])} pair digests "
          f"to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
