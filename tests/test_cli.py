import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import commatch
from commatch.bounds import achievability_profile, converse_check
from commatch import cli
from commatch.cli import ExperimentConfig, _quantiles, main, run_campaign, trial_seed
from commatch.errors import ValidationError
from commatch.graphgen import anonymize, load_instance, sample_pair, save_instance
from commatch.model import (
    copy_joint,
    dsbs_joint,
    homogeneous_model,
    load_model,
    save_model,
    single_community,
    uniform_product_joint,
)
from commatch.typicality import DEFAULT_KAPPA, default_epsilon


@pytest.fixture()
def model_c2(tmp_path):
    path = tmp_path / "c2.json"
    model, lay = homogeneous_model(dsbs_joint(0.2), (3, 3))
    save_model(model, lay, path)
    return str(path)


@pytest.fixture()
def model_c1(tmp_path):
    path = tmp_path / "c1.json"
    model, lay = homogeneous_model(copy_joint(2), (6,))
    save_model(model, lay, path)
    return str(path)


def test_generate_writes_deterministic_instance(tmp_path, model_c2):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--model", model_c2, "--seed", "5", "--mode", "csi"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    inst = load_instance(out1)
    assert inst.n == 6 and inst.mode == "csi"
    doc = json.loads(out1.read_text())
    assert "tool_version" in doc and "config_hash" in doc


def test_generate_requires_out(model_c2, capsys):
    assert main(["generate", "--model", model_c2]) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("generate", "instance file to write"),
    ("campaign", "PREFIX.csv and PREFIX.summary.json"),
])
def test_out_help_says_what_is_written(capsys, command, text):
    assert main([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert text in out and "default stdout" not in out


def test_match_outputs_expected_document(tmp_path, model_c2):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--model", model_c2, "--seed", "3", "--out", str(inst_path)])
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    args = ["match", "--input", str(inst_path), "--eps", "1.0", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["mode"] == "csi" and doc["n"] == 6
    assert doc["eps"] == 1.0
    assert doc["ambiguity_size"] == 36 and doc["candidate_space"] == 36
    assert doc["truth_included"] is True
    assert sorted(doc["labeling"]) == list(range(1, 7))
    assert 0.0 <= doc["accuracy"] <= 1.0


def test_match_default_eps_follows_schedule(tmp_path, model_c2, capsys):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--model", model_c2, "--seed", "3", "--out", str(inst_path)])
    out = tmp_path / "m.json"
    assert main(["match", "--input", str(inst_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["eps"] == default_epsilon(6)
    # kappa rescales the schedule (3.0 keeps the set nonempty at this n)
    assert main(["match", "--input", str(inst_path), "--kappa", "3.0",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["eps"] == default_epsilon(6, kappa=3.0)


def test_match_runtime_goes_to_stderr_not_stdout(tmp_path, model_c2, capsys):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--model", model_c2, "--seed", "3", "--out", str(inst_path)])
    assert main(["match", "--input", str(inst_path), "--eps", "1.0"]) == 0
    captured = capsys.readouterr()
    assert "ms" in captured.err
    json.loads(captured.out)  # stdout is the bare document


def test_match_empty_set_exit_code(tmp_path):
    path = tmp_path / "copy.json"
    model, lay = homogeneous_model(copy_joint(2), (3, 3))
    save_model(model, lay, path)
    inst_path = tmp_path / "inst.json"
    for seed in range(20):
        main(["generate", "--model", str(path), "--seed", str(seed),
              "--out", str(inst_path)])
        code = main(["match", "--input", str(inst_path), "--eps", "0.05",
                     "--out", str(tmp_path / "m.json")])
        if code == 1:
            return
    pytest.skip("no empty ambiguity set found in seed range")


def test_match_cap_guard_exit_code(tmp_path, model_c2):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--model", model_c2, "--seed", "3", "--out", str(inst_path)])
    assert main(["match", "--input", str(inst_path), "--eps", "1.0",
                 "--cap", "4"]) == 3


def test_wsi_match_is_refused_before_enumerating(tmp_path, monkeypatch):
    # (15,15) would have C(30,15) ~ 1.55e8 assignments to build
    from commatch import matcher

    def refuse(*args):
        raise AssertionError("assignments were built")

    monkeypatch.setattr(matcher, "_assignments", refuse)
    monkeypatch.setattr(matcher, "_perm_table", refuse)
    path = tmp_path / "big.json"
    model, lay = homogeneous_model(dsbs_joint(0.1), (15, 15))
    save_model(model, lay, path)
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--model", str(path), "--seed", "1", "--mode", "wsi",
                 "--out", str(inst_path)]) == 0
    assert main(["match", "--input", str(inst_path)]) == 3


def test_invalid_model_exit_code(tmp_path, model_c2):
    bad = tmp_path / "bad.json"
    bad.write_text(Path(model_c2).read_text().replace("0.4", "0.3", 1))
    assert main(["generate", "--model", str(bad), "--out", str(tmp_path / "x")]) == 2


def _drop_last(key):
    def f(doc):
        doc[key] = doc[key][:-1]
    return f


def _set_first(key, value):
    def f(doc):
        doc[key][0] = value
    return f


def _delete(key):
    def f(doc):
        del doc[key]
    return f


def _move_vertex_to_community_2(doc):
    m = doc["comm2_of_vertex"]
    m[m.index(0)] = 1


MALFORMED = {
    "short g1_ut": _drop_last("g1_ut"),
    "long g2_ut": lambda doc: doc["g2_ut"].append(0),
    "g1_ut not a list": lambda doc: doc.update(g1_ut=7),
    "string entry": _set_first("g1_ut", "1"),
    "float entry": _set_first("g2_ut", 1.5),
    "bool entry": _set_first("g2_ut", True),
    "null entry": _set_first("g1_ut", None),
    "value = l": _set_first("g2_ut", 2),
    "value beyond l": _set_first("g2_ut", 5),
    "negative value": _set_first("g1_ut", -1),
    "no comm1_of_label": _delete("comm1_of_label"),
    "no comm2_of_vertex": _delete("comm2_of_vertex"),
    "short comm2_of_vertex": _drop_last("comm2_of_vertex"),
    "community out of range": _set_first("comm1_of_label", 2),
    "community sizes differ": _move_vertex_to_community_2,
    "l not a number": lambda doc: doc.update(l="x"),
    "community size not a number": lambda doc: doc.update(communities=["a", 3]),
    # int() would truncate these to the instance's own l = 2 and sizes (3, 3)
    "l fractional": lambda doc: doc.update(l=2.9),
    "community sizes fractional": lambda doc: doc.update(communities=[3.7, 3.2]),
    "joint not numbers": lambda doc: doc.update(joint="x"),
    "seed not a number": lambda doc: doc.update(seed="x"),
    "shuffle_seed a float": lambda doc: doc.update(shuffle_seed=1.5),
    "truth entry not a number": _set_first("truth", "a"),
    "truth shorter than n": lambda doc: doc.update(truth=[2, 1]),
    "truth repeats a label": lambda doc: doc.update(truth=[1] * 6),
    "truth 0-based": lambda doc: doc.update(truth=[v - 1 for v in doc["truth"]]),
}
# community maps are read under mode csi only
WSI_IGNORES = {"no comm1_of_label", "no comm2_of_vertex", "short comm2_of_vertex",
               "community out of range", "community sizes differ"}


@pytest.mark.parametrize("mode", ["csi", "wsi"])
@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_instance_is_validation_error(tmp_path, model_c2, capsys, name, mode):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--model", model_c2, "--seed", "3", "--out", str(inst_path)])
    doc = json.loads(inst_path.read_text())
    MALFORMED[name](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = ["match", "--input", str(bad), "--mode", mode, "--eps", "0.9"]
    if mode == "wsi" and name in WSI_IGNORES:
        assert main(argv) == 0
        return
    with pytest.raises(ValidationError):
        load_instance(bad, mode=mode)
    assert main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


MALFORMED_MODEL = {
    "l not a number": {"l": "x"},
    "l null": {"l": None},
    "community size not a number": {"communities": ["a", 3]},
    "communities not a list": {"communities": 6},
    "l fractional": {"l": 2.9},
    "community sizes fractional": {"communities": [3.7, 3.2]},
    "community size a bool": {"communities": [True, 5]},
    "joint not numbers": {"joint": [[["x"]]]},
    "ragged joint": {"joint": [[[[0.4, 0.1], [0.5]]]]},
}


@pytest.mark.parametrize("name", list(MALFORMED_MODEL))
def test_malformed_model_is_validation_error(tmp_path, model_c2, capsys, name):
    doc = json.loads(Path(model_c2).read_text())
    doc.update(MALFORMED_MODEL[name])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_model(bad)
    assert main(["region", "--model", str(bad), "--n", "10"]) == 2
    assert "invalid input" in capsys.readouterr().err


NON_FINITE_MODEL_COMMANDS = [
    pytest.param(["generate", "--out", "{out}"], id="generate"),
    pytest.param(["campaign", "--n", "6", "--trials", "2", "--out", "{out}"], id="campaign"),
    pytest.param(["region", "--n", "10", "--out", "{out}"], id="region"),
    pytest.param(["converse", "--n", "10", "--out", "{out}"], id="converse"),
    pytest.param(["scan", "--n-list", "10", "--out", "{out}"], id="scan"),
    pytest.param(["verify", "--check", "prop1", "--n", "3", "--eps", "0.25", "--out", "{out}"],
                 id="verify"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("argv", NON_FINITE_MODEL_COMMANDS)
def test_non_finite_model_entry_is_validation_error(tmp_path, model_c1, model_c2, capsys,
                                                    argv, value):
    # json reads NaN and Infinity literals as floats; a model holding one is
    # refused, naming its block, before anything is written
    src = model_c1 if argv[0] == "verify" else model_c2
    doc = json.loads(Path(src).read_text())
    doc["joint"][0][0][1][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert "NaN" in bad.read_text() or "Infinity" in bad.read_text()
    with pytest.raises(ValidationError):
        load_model(bad)
    out = tmp_path / "out"
    argv = [a.format(out=out) for a in argv] + ["--model", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    assert ("invalid input: non-finite entries in block for communities (1,1)"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("mode", ["csi", "wsi"])
def test_non_finite_instance_joint_is_validation_error(tmp_path, model_c2, capsys, mode):
    inst_path = tmp_path / "inst.json"
    assert main(["generate", "--model", model_c2, "--seed", "3", "--out", str(inst_path)]) == 0
    doc = json.loads(inst_path.read_text())
    doc["joint"][1][0][0][1] = math.nan
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_instance(bad)
    capsys.readouterr()
    assert main(["match", "--input", str(bad), "--mode", mode, "--eps", "0.9"]) == 2
    err = capsys.readouterr().err
    assert "invalid input: non-finite entries in block for communities (2,1)" in err
    assert "ambiguity set" not in err


def test_model_and_instance_files_are_read_once(tmp_path, model_c2, monkeypatch):
    # a config hash keys on the very bytes that were parsed: every command
    # opens its model or instance file once
    inst = tmp_path / "inst.json"
    assert main(["generate", "--model", model_c2, "--out", str(inst)]) == 0
    opened = []
    real_open = open

    def spy(path, *args, **kwargs):
        if str(path) in (model_c2, str(inst)):
            opened.append(str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    for argv in (["generate", "--model", model_c2, "--out", str(tmp_path / "g.json")],
                 ["match", "--input", str(inst), "--eps", "1.0", "--out", str(tmp_path / "m")],
                 ["campaign", "--model", model_c2, "--n", "6", "--trials", "2",
                  "--out", str(tmp_path / "camp")],
                 ["region", "--model", model_c2, "--n", "10", "--out", str(tmp_path / "r")],
                 ["converse", "--model", model_c2, "--n", "10", "--out", str(tmp_path / "c")],
                 ["scan", "--model", model_c2, "--n-list", "10", "--out", str(tmp_path / "s")]):
        opened.clear()
        assert main(argv) == 0
        assert len(opened) == 1, (argv[0], opened)


@pytest.mark.parametrize("argv", [
    ["region", "--n", "10"],
    ["converse", "--n", "10"],
    ["verify", "--check", "prop1", "--n", "3", "--eps", "0.25"],
    ["scan", "--n-list", "10"],
], ids=lambda argv: argv[0])
def test_seed_is_not_accepted_where_unread(model_c1, capsys, argv):
    argv = argv + ["--model", model_c1]
    assert main(argv) == 0
    assert main(argv + ["--seed", "1"]) == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_negative_eps_is_parameter_error(tmp_path, model_c2, capsys):
    inst_path = tmp_path / "inst.json"
    main(["generate", "--model", model_c2, "--seed", "3", "--out", str(inst_path)])
    assert main(["match", "--input", str(inst_path), "--eps", "-0.3"]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_negative_kappa_is_parameter_error(tmp_path, model_c2):
    # schedule eps = kappa * log2(n) / n goes negative with the sign of kappa
    code = main(["campaign", "--model", model_c2, "--n", "10", "--trials", "2",
                 "--kappa", "-2.0", "--out", str(tmp_path / "nk")])
    assert code == 2


MALFORMED_NUMBERS = [
    pytest.param(["scan", "--model", "{c2}", "--n-list", "10,abc"], id="scan-n-list"),
    pytest.param(["scan", "--model", "{c1}", "--n-list", "10", "--grid", "nan"], id="scan-grid"),
    pytest.param(["verify", "--check", "prop1", "--model", "{c1}", "--n", "4", "--eps", "nan"],
                 id="verify-eps"),
    pytest.param(["region", "--model", "{c2}", "--n", "10", "--grid", "nan"], id="region-grid-nan"),
    pytest.param(["region", "--model", "{c2}", "--n", "10", "--grid", "inf"], id="region-grid-inf"),
    pytest.param(["campaign", "--model", "{c2}", "--n", "6", "--trials", "2", "--eps", "nan",
                  "--out", "{out}"], id="campaign-eps"),
    pytest.param(["campaign", "--model", "{c2}", "--n", "6", "--trials", "2", "--kappa", "nan",
                  "--out", "{out}"], id="campaign-kappa"),
    pytest.param(["match", "--input", "{inst}", "--eps", "nan"], id="match-eps"),
    pytest.param(["match", "--input", "{inst}", "--eps", "inf"], id="match-eps-inf"),
    pytest.param(["match", "--input", "{inst}", "--cap", "0"], id="match-cap-0"),
    pytest.param(["match", "--input", "{inst}", "--cap", "-5"], id="match-cap-neg"),
    pytest.param(["campaign", "--model", "{c2}", "--n", "6", "--trials", "2", "--cap", "0",
                  "--out", "{out}"], id="campaign-cap-0"),
    pytest.param(["campaign", "--model", "{c2}", "--n", "6", "--trials", "2", "--cap", "-5",
                  "--out", "{out}"], id="campaign-cap-neg"),
]


@pytest.mark.parametrize("argv", MALFORMED_NUMBERS)
def test_malformed_numbers_are_parameter_errors(tmp_path, model_c1, model_c2, capsys, argv):
    # non-finite eps, kappa and grid values, non-integer n values and caps
    # below 1 exit 2 before writing anything
    inst = tmp_path / "inst.json"
    assert main(["generate", "--model", model_c2, "--out", str(inst)]) == 0
    out = tmp_path / "camp"
    argv = [a.format(c1=model_c1, c2=model_c2, inst=inst, out=out) for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad parameters:") and not captured.out
    assert not list(tmp_path.glob("camp*"))


def test_unreadable_files_are_validation_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["generate", "--model", missing, "--out", str(tmp_path / "x")]) == 2
    assert main(["match", "--input", missing]) == 2
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("not json{")
    assert main(["match", "--input", str(corrupt)]) == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]\n")
    assert main(["generate", "--model", str(arr), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "not valid JSON" in err


# every command that writes through --out, with its --out left off; campaign
# writes PREFIX.csv and PREFIX.summary.json, the others the path itself
OUT_COMMANDS = {
    "generate": ["generate", "--model", "{c2}"],
    "match": ["match", "--input", "{inst}"],
    "campaign": ["campaign", "--model", "{c2}", "--n", "6", "--trials", "2"],
    "region": ["region", "--model", "{c2}", "--n", "10"],
    "converse": ["converse", "--model", "{c2}", "--n", "10"],
    "verify": ["verify", "--check", "prop1", "--model", "{c1}", "--n", "4", "--eps", "0.3"],
    "scan": ["scan", "--model", "{c2}", "--n-list", "10"],
}

# {missing} lies under a directory that does not exist; {dir} names an
# existing directory (so do {dir}.csv and {dir}.summary.json)
UNWRITABLE_OUT = [
    *(pytest.param(argv + ["--out", "{missing}"], id=name)
      for name, argv in OUT_COMMANDS.items()),
    *(pytest.param(argv + ["--out", "{dir}"], id=f"{name}-directory")
      for name, argv in OUT_COMMANDS.items()),
]


@pytest.mark.parametrize("argv", UNWRITABLE_OUT)
def test_unwritable_out_is_a_validation_error(tmp_path, model_c1, model_c2, capsys, argv):
    # an --out path under a missing directory, or one that names a directory,
    # exits 2 with one line, not a traceback
    inst = tmp_path / "inst.json"
    assert main(["generate", "--model", model_c2, "--out", str(inst)]) == 0
    out_dir = tmp_path / "d"
    for suffix in ("", ".csv", ".summary.json"):
        Path(f"{out_dir}{suffix}").mkdir()
    argv = [a.format(c1=model_c1, c2=model_c2, inst=inst, missing=tmp_path / "missing" / "x",
                     dir=out_dir) for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line.startswith("invalid input:")]
    assert len(lines) == 1 and lines[0].startswith("invalid input: cannot write "), captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert not (tmp_path / "missing").exists()
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize("name", [*OUT_COMMANDS, "save_model"])
def test_out_overwrites_longer_and_equal_length_files(tmp_path, model_c1, model_c2, name):
    # writing over a longer file, or over one of equal length, leaves exactly
    # the bytes that a fresh directory gets
    inst = tmp_path / "inst.json"
    assert main(["generate", "--model", model_c2, "--out", str(inst)]) == 0
    suffixes = [".csv", ".summary.json"] if name == "campaign" else [""]

    def write(out: Path) -> list[bytes]:
        if name == "save_model":
            save_model(*homogeneous_model(dsbs_joint(0.2), (3, 3)), out)
        else:
            argv = [a.format(c1=model_c1, c2=model_c2, inst=inst)
                    for a in OUT_COMMANDS[name]]
            assert main(argv + ["--out", str(out)]) == 0
        return [Path(f"{out}{suffix}").read_bytes() for suffix in suffixes]

    (tmp_path / "fresh").mkdir()
    want = write(tmp_path / "fresh" / "out")
    for extra in (1000, 1, 0):
        work = tmp_path / f"over{extra}"
        work.mkdir()
        for suffix, data in zip(suffixes, want):
            Path(f"{work / 'out'}{suffix}").write_bytes(b"#" * (len(data) + extra))
        assert write(work / "out") == want, extra


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
@pytest.mark.parametrize("name", ["match", "region"])
def test_out_to_the_null_device(tmp_path, model_c1, model_c2, capsys, name):
    # a device is written to and never truncated
    inst = tmp_path / "inst.json"
    assert main(["generate", "--model", model_c2, "--out", str(inst)]) == 0
    argv = [a.format(c1=model_c1, c2=model_c2, inst=inst) for a in OUT_COMMANDS[name]]
    capsys.readouterr()
    assert main(argv + ["--out", os.devnull]) == 0
    assert "invalid input" not in capsys.readouterr().err


def test_campaign_outputs(tmp_path, model_c2):
    prefix = str(tmp_path / "camp")
    args = ["campaign", "--model", model_c2, "--n", "6", "--trials", "5",
            "--seed", "11", "--eps", "1.0", "--out", prefix]
    assert main(args) == 0
    csv_text = Path(prefix + ".csv").read_text()
    again = str(tmp_path / "camp2")
    assert main(["campaign", "--model", model_c2, "--n", "6", "--trials", "5",
                 "--seed", "11", "--eps", "1.0", "--out", again]) == 0
    assert csv_text == Path(again + ".csv").read_text()
    meta = [line for line in csv_text.splitlines() if line.startswith("#")]
    assert any("config_hash=" in m for m in meta)
    rows = list(csv.DictReader(
        line for line in csv_text.splitlines() if not line.startswith("#")))
    assert len(rows) == 5
    assert [r["trial"] for r in rows] == [str(i) for i in range(5)]
    assert all(r["mode"] == "csi" for r in rows)
    summary = json.loads(Path(prefix + ".summary.json").read_text())
    assert summary["trials"] == 5 and summary["n"] == 6
    assert summary["truth_inclusion_rate"] == 1.0  # eps=1 includes everything
    assert 0.0 <= summary["mean_accuracy"] <= 1.0


def test_campaign_reruns_are_byte_identical(tmp_path, model_c2):
    a, b = str(tmp_path / "run1"), str(tmp_path / "run2")
    base = ["campaign", "--model", model_c2, "--n", "6", "--trials", "6",
            "--seed", "2", "--eps", "1.0"]
    assert main(base + ["--out", a]) == 0
    assert main(base + ["--out", b]) == 0
    assert Path(a + ".csv").read_text() == Path(b + ".csv").read_text()
    assert Path(a + ".summary.json").read_text() == Path(b + ".summary.json").read_text()


def test_campaign_config_hash_follows_model_contents(tmp_path, model_c2, monkeypatch):
    # one campaign against copies of one model file in two directories, named
    # by a relative and by an absolute path, writes the same bytes
    args = ["campaign", "--n", "6", "--trials", "3", "--seed", "4", "--eps", "0.5",
            "--out", "camp", "--model"]
    outs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        shutil.copyfile(model_c2, tmp_path / name / "model.json")
        monkeypatch.chdir(tmp_path / name)
        path = "model.json" if name == "a" else str(tmp_path / name / "model.json")
        assert main(args + [path]) == 0
        outs.append((Path("camp.csv").read_bytes(), Path("camp.summary.json").read_bytes()))
    assert outs[0] == outs[1]
    # editing the file changes the hash, though its path stays the same
    model = tmp_path / "b" / "model.json"
    model.write_text(model.read_text() + "\n")
    assert main(args + ["model.json"]) == 0
    assert (json.loads(Path("camp.summary.json").read_text())["config_hash"]
            != json.loads(outs[0][1])["config_hash"])


def test_campaign_follows_a_model_file_rewritten_in_place(tmp_path):
    # a model file rewritten at the same path with new bytes is parsed
    # afresh: the next campaign in the same process gives what a campaign on
    # the new model at another path gives, in its rows and its config_hash
    path, other = tmp_path / "model.json", tmp_path / "other.json"
    args = ["campaign", "--n", "6", "--trials", "6", "--seed", "4", "--eps", "0.3",
            "--out", str(tmp_path / "camp"), "--model"]

    def run(model: Path) -> tuple[bytes, bytes]:
        assert main(args + [str(model)]) == 0
        return ((tmp_path / "camp.csv").read_bytes(),
                (tmp_path / "camp.summary.json").read_bytes())

    save_model(*homogeneous_model(dsbs_joint(0.2), (3, 3)), path)
    before = run(path)
    save_model(*homogeneous_model(copy_joint(2), (3, 3)), path)
    after = run(path)
    save_model(*homogeneous_model(copy_joint(2), (3, 3)), other)
    assert after == run(other)
    rows = [b"\n".join(line for line in csv_bytes.splitlines() if not line.startswith(b"#"))
            for csv_bytes, _ in (before, after)]
    assert rows[0] != rows[1]
    assert json.loads(before[1])["config_hash"] != json.loads(after[1])["config_hash"]


def test_campaign_seeds_are_per_trial(tmp_path, model_c2):
    prefix = str(tmp_path / "camp")
    main(["campaign", "--model", model_c2, "--n", "6", "--trials", "4",
          "--seed", "9", "--eps", "1.0", "--out", prefix])
    rows = list(csv.DictReader(
        line for line in Path(prefix + ".csv").read_text().splitlines()
        if not line.startswith("#")))
    seeds = [int(r["seed"]) for r in rows]
    assert seeds == [trial_seed(9, i) for i in range(4)]
    assert len(set(seeds)) == 4


@pytest.mark.parametrize("n, mode, eps, cap, errors", [
    (6, "csi", 0.6, 10 ** 7, {""}),
    (6, "wsi", None, 10 ** 7, {""}),
    # (3,3) has 36 community-preserving candidates: every trial is refused
    (6, "csi", None, 10, {"SizeGuardError: 36 candidate labelings exceed cap 10"}),
    # dead blocks empty some sets, counted blocks others, and some trials pass
    (8, "csi", 0.25, 10 ** 7, {"", "EmptyAmbiguitySetError: ambiguity set empty (mode csi, eps 0.25)"}),
    # 720 labelings x 20 assignments: every wsi trial is refused
    (6, "wsi", None, 1000, {"SizeGuardError: 720 candidates x 20 assignments exceed cap 1000"}),
    # undecided and dead assignment pairs: some wsi sets empty, some not
    (6, "wsi", 0.25, 10 ** 7, {"", "EmptyAmbiguitySetError: ambiguity set empty (mode wsi, eps 0.25)"}),
], ids=["csi", "wsi", "cap", "dead-block", "wsi-cap", "wsi-empty"])
def test_campaign_chunks_change_no_output(monkeypatch, model_c2, n, mode, eps, cap, errors):
    cfg = ExperimentConfig(model_path=model_c2, n=n, mode=mode, trials=8, master_seed=3,
                           eps=eps, kappa=DEFAULT_KAPPA, cap=cap)
    want = run_campaign(cfg)
    assert {r.error for r in want[0]} == errors
    for chunk in (1, 2, 3):
        monkeypatch.setattr(cli, "_TRIAL_CHUNK", chunk)
        assert run_campaign(cfg) == want, chunk


def test_campaign_quantiles_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(12)
    qs = (0.1, 0.5, 0.9)
    for k in range(3000):
        n = int(rng.integers(1, 30))
        values = (rng.integers(0, 13, n) / 12 if k % 2 else rng.random(n)).tolist()
        want = np.quantile(np.asarray(values), qs).tolist()
        assert np.array(_quantiles(values, qs)).tobytes() == np.array(want).tobytes()


def _child_modules(*argv: str) -> tuple[int, set[str]]:
    """Run `commatch argv` in a fresh child process; its exit code and the
    modules it loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(commatch.__file__)))
    child = (
        "import json, runpy, sys\n"
        "sys.argv = ['commatch'] + sys.argv[1:]\n"
        "code = 0\n"
        "try:\n"
        "    runpy.run_module('commatch', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    code = e.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n")
    run = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    code, modules = json.loads(run.stdout.splitlines()[-1])
    return code, set(modules)


def test_campaign_child_does_not_import_numpy_ma(tmp_path, model_c2):
    # np.quantile would import numpy.ma on its first call, at ~15 ms a process
    code, modules = _child_modules(
        "campaign", "--model", model_c2, "--n", "6", "--trials", "3", "--seed", "5",
        "--out", str(tmp_path / "camp"))
    assert code == 0
    assert sorted(m for m in modules if m == "numpy.ma" or m.startswith("numpy.ma.")) == []
    summary = json.loads((tmp_path / "camp.summary.json").read_text())
    assert summary["accuracy_quantiles"] is not None


_GENERATE = {"model", "graphgen", "permutation", "typicality"}
_PROP1 = {"model", "oracle", "permutation", "typicality"}


@pytest.mark.parametrize("argv, exit_code, loads", [
    (["--help"], 0, set()),
    (["match"], 2, set()),
    (["generate", "--model", "{c2}", "--out", "{tmp}/inst.json"], 0, _GENERATE),
    (["match", "--input", "{inst}", "--eps", "1.0"], 0, _GENERATE | {"matcher"}),
    (["campaign", "--model", "{c2}", "--n", "6", "--trials", "2", "--out", "{tmp}/camp"],
     0, _GENERATE | {"matcher"}),
    (["region", "--model", "{c2}", "--n", "8"], 0, {"bounds", "model"}),
    (["converse", "--model", "{c2}", "--n", "8"], 0, {"bounds", "model"}),
    (["scan", "--model", "{c2}", "--n-list", "8,10"], 0, {"bounds", "model"}),
    (["verify", "--check", "prop1", "--model", "{c1}", "--n", "4", "--eps", "0.25"],
     0, _PROP1),
    (["verify", "--check", "thm1", "--model", "{c1}", "--n", "4", "--eps", "0.25"],
     0, _PROP1 | {"bounds"}),
], ids=["help", "usage-error", "generate", "match", "campaign", "region", "converse",
        "scan", "verify-prop1", "verify-thm1"])
def test_child_loads_only_its_subcommands_modules(tmp_path, model_c2, argv, exit_code,
                                                  loads):
    c1 = tmp_path / "c1.json"
    save_model(*homogeneous_model(dsbs_joint(0.1), (4,)), c1)
    inst = tmp_path / "given.json"
    save_instance(anonymize(sample_pair(*load_model(model_c2), 3), "csi", 3), inst)
    paths = {"c1": c1, "c2": model_c2, "inst": inst, "tmp": tmp_path}
    code, modules = _child_modules(*(a.format(**paths) for a in argv))
    assert code == exit_code
    assert {m for m in modules if m.startswith("commatch.")} == {
        f"commatch.{m}" for m in loads | {"cli", "errors"}}
    assert ("numpy" in modules) == bool(loads)
    assert ("fractions" in modules) == (argv[0] == "verify")


def test_handlers_resolve_their_modules_once_per_process(tmp_path, model_c2, monkeypatch):
    # after a first run of each command, later runs import nothing
    inst = tmp_path / "inst.json"
    argvs = [["generate", "--model", model_c2, "--out", str(inst)],
             ["match", "--input", str(inst), "--eps", "1.0", "--out", str(tmp_path / "m.json")],
             ["campaign", "--model", model_c2, "--n", "6", "--trials", "2",
              "--out", str(tmp_path / "camp")],
             ["scan", "--model", model_c2, "--n-list", "8", "--out", str(tmp_path / "s.csv")]]
    for argv in argvs:
        assert main(argv) == 0
    outputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    relative = []
    builtin_import = __import__

    def recording(name, globals=None, locals=None, fromlist=(), level=0):
        if level:
            relative.append(name)
        return builtin_import(name, globals, locals, fromlist, level)

    def refuse(*args, **kwargs):
        raise AssertionError("a handler imported a module again")

    with monkeypatch.context() as m:
        m.setattr(cli.importlib, "import_module", refuse)
        m.setattr("builtins.__import__", recording)
        for argv in argvs:
            assert main(argv) == 0
    assert relative == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == outputs


def test_campaign_requires_out(model_c2, capsys):
    assert main(["campaign", "--model", model_c2, "--n", "6", "--trials", "2"]) == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_wsi_campaign_matches_csi_at_one_community(tmp_path, model_c1):
    outs = {}
    for mode in ("csi", "wsi"):
        prefix = str(tmp_path / mode)
        assert main(["campaign", "--model", model_c1, "--n", "6", "--trials", "4",
                     "--mode", mode, "--seed", "3", "--eps", "1.0",
                     "--out", prefix]) == 0
        rows = list(csv.DictReader(
            line for line in Path(prefix + ".csv").read_text().splitlines()
            if not line.startswith("#")))
        outs[mode] = rows
    for a, b in zip(outs["csi"], outs["wsi"]):
        assert a["accuracy"] == b["accuracy"]
        assert a["ambiguity_size"] == b["ambiguity_size"]
        assert a["truth_included"] == b["truth_included"]


def test_region_rows_match_api(tmp_path, model_c2, capsys):
    assert main(["region", "--model", model_c2, "--n", "10",
                 "--delta", "0.2", "--grid", "0.2"]) == 0
    out = capsys.readouterr().out
    body = [line for line in out.splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(body))
    model, lay = load_model(model_c2)
    api = achievability_profile(model, lay, 10, 0.2, 0.2)
    assert len(rows) == len(api)
    for row, ref in zip(rows, api):
        assert float(row["alpha"]) == ref.alpha
        assert float(row["margin_bits"]) == ref.margin_bits


@pytest.mark.parametrize("argv", [["region", "--n", "6", "--grid", "1e-300"],
                                  ["scan", "--n-list", "10", "--grid", "1e-20"]],
                         ids=["region", "scan"])
def test_grid_steps_finer_than_float64_are_parameter_errors(tmp_path, capsys, argv):
    # such a step once escaped as numpy's "Maximum allowed size exceeded"
    path = tmp_path / "d33.json"
    save_model(*homogeneous_model(dsbs_joint(0.1), (3, 3)), path)
    assert main(argv + ["--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad parameters: grid step ")
    assert captured.err.count("\n") == 1


def test_converse_matches_api(tmp_path, model_c2, capsys):
    assert main(["converse", "--model", model_c2, "--n", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    model, lay = load_model(model_c2)
    ref = converse_check(model, lay, 12)
    assert doc["impossible"] == ref.impossible
    assert doc["lhs_bits"] == ref.lhs_bits
    assert doc["rhs_bits"] == ref.rhs_bits


def test_scan_shows_achievability_flip(tmp_path, model_c1, capsys):
    assert main(["scan", "--model", model_c1, "--n-list", "10,1000",
                 "--delta", "0.05"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(
        line for line in out.splitlines() if not line.startswith("#")))
    assert [r["n"] for r in rows] == ["10", "1000"]
    assert rows[0]["achievable"] == "false"
    assert rows[1]["achievable"] == "true"
    assert float(rows[1]["conv_lhs_bits"]) == pytest.approx(
        2 * math.log2(1000) / 1000, abs=1e-12)


def test_verify_prop1_passes(tmp_path, capsys):
    path = tmp_path / "unif.json"
    model, lay = homogeneous_model(uniform_product_joint(2), (4,))
    save_model(model, lay, path)
    assert main(["verify", "--check", "prop1", "--model", str(path),
                 "--n", "4", "--eps", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "failures=0" in out


def test_verify_thm1_passes(tmp_path, capsys):
    path = tmp_path / "dsbs.json"
    model, lay = homogeneous_model(dsbs_joint(0.1), (4,))
    save_model(model, lay, path)
    assert main(["verify", "--check", "thm1", "--model", str(path),
                 "--n", "4", "--eps", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "failures=0" in out


def test_verify_rejects_multi_community(model_c2):
    assert main(["verify", "--check", "prop1", "--model", model_c2,
                 "--n", "4", "--eps", "0.25"]) == 2


@pytest.mark.parametrize("check", ["prop1", "thm1"])
@pytest.mark.parametrize("n, eps, text", [
    ("1", "0.25", "n must be >= 2, got 1"),
    ("0", "0.25", "n must be >= 2, got 0"),
    ("7", "-1", "eps must be nonnegative, got -1.0"),
], ids=["n1", "n0", "negative-eps"])
def test_verify_refuses_vacuous_checks(tmp_path, capsys, check, n, eps, text):
    # n < 2 has no permutation to check and a negative eps no typical
    # outcome, so every line would read p=0 and PASS
    path = tmp_path / "dsbs.json"
    save_model(*homogeneous_model(dsbs_joint(0.1), (4,)), path)
    assert main(["verify", "--check", check, "--model", str(path),
                 "--n", n, "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bad parameters: {text}\n"


def test_trial_seed_spreads():
    seeds = [trial_seed(123, i) for i in range(200)]
    assert len(set(seeds)) == 200
    assert all(0 <= s < 2 ** 64 for s in seeds)
    assert trial_seed(123, 0) != trial_seed(124, 0)


def test_module_entry_point(tmp_path, model_c2):
    # the child imports the package this process imported, also when pytest's
    # own pythonpath setting found it and PYTHONPATH is unset
    src = os.path.dirname(os.path.dirname(os.path.abspath(commatch.__file__)))
    path = os.environ.get("PYTHONPATH")
    run = subprocess.run(
        [sys.executable, "-m", "commatch", "converse", "--model", model_c2,
         "--n", "8"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else "")))
    assert run.returncode == 0
    doc = json.loads(run.stdout)
    assert "impossible" in doc


def test_outputs_do_not_depend_on_hash_seed(tmp_path):
    # generate and a campaign in fresh processes under different hash seeds
    # write the same bytes: no cache or generator depends on hash or call order
    model_path = tmp_path / "d3333.json"
    model, lay = homogeneous_model(dsbs_joint(0.1), (3, 3, 3, 3))
    save_model(model, lay, model_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(commatch.__file__)))
    path = os.environ.get("PYTHONPATH")
    outs = []
    for hash_seed in ("0", "2718"):
        out = tmp_path / f"hash{hash_seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        for argv in (["generate", "--seed", "5", "--out", str(out / "inst.json")],
                     ["campaign", "--n", "12", "--trials", "3", "--seed", "5", "--eps", "0.3",
                      "--out", str(out / "camp")]):
            run = subprocess.run([sys.executable, "-m", "commatch", *argv,
                                  "--model", str(model_path)],
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(outs[0]) == ["camp.csv", "camp.summary.json", "inst.json"]
    assert outs[0] == outs[1]
