import csv
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import commatch
from commatch.bounds import achievability_profile, converse_check
from commatch.cli import main, trial_seed
from commatch.errors import ValidationError
from commatch.graphgen import load_instance
from commatch.model import (
    copy_joint,
    dsbs_joint,
    homogeneous_model,
    load_model,
    save_model,
    single_community,
    uniform_product_joint,
)
from commatch.typicality import default_epsilon


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


def test_generate_requires_out(model_c2):
    assert main(["generate", "--model", model_c2]) == 2


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
    bad.write_text(open(model_c2).read().replace("0.4", "0.3", 1))
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
    doc = json.loads(open(model_c2).read())
    doc.update(MALFORMED_MODEL[name])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_model(bad)
    assert main(["region", "--model", str(bad), "--n", "10"]) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["region", "--n", "10"],
    ["converse", "--n", "10"],
    ["verify", "--check", "prop1", "--n", "3", "--eps", "0.25"],
    ["scan", "--n-list", "10"],
], ids=lambda argv: argv[0])
def test_seed_is_not_accepted_where_unread(model_c1, capsys, argv):
    argv = argv + ["--model", model_c1]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--seed", "1"])
    assert exit_info.value.code == 2
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


def test_campaign_outputs(tmp_path, model_c2):
    prefix = str(tmp_path / "camp")
    args = ["campaign", "--model", model_c2, "--n", "6", "--trials", "5",
            "--seed", "11", "--eps", "1.0", "--out", prefix]
    assert main(args) == 0
    csv_text = open(prefix + ".csv").read()
    again = str(tmp_path / "camp2")
    assert main(["campaign", "--model", model_c2, "--n", "6", "--trials", "5",
                 "--seed", "11", "--eps", "1.0", "--out", again]) == 0
    assert csv_text == open(again + ".csv").read()
    meta = [line for line in csv_text.splitlines() if line.startswith("#")]
    assert any("config_hash=" in m for m in meta)
    rows = list(csv.DictReader(
        line for line in csv_text.splitlines() if not line.startswith("#")))
    assert len(rows) == 5
    assert [r["trial"] for r in rows] == [str(i) for i in range(5)]
    assert all(r["mode"] == "csi" for r in rows)
    summary = json.loads(open(prefix + ".summary.json").read())
    assert summary["trials"] == 5 and summary["n"] == 6
    assert summary["truth_inclusion_rate"] == 1.0  # eps=1 includes everything
    assert 0.0 <= summary["mean_accuracy"] <= 1.0


def test_campaign_reruns_are_byte_identical(tmp_path, model_c2):
    a, b = str(tmp_path / "run1"), str(tmp_path / "run2")
    base = ["campaign", "--model", model_c2, "--n", "6", "--trials", "6",
            "--seed", "2", "--eps", "1.0"]
    assert main(base + ["--out", a]) == 0
    assert main(base + ["--out", b]) == 0
    assert open(a + ".csv").read() == open(b + ".csv").read()
    assert open(a + ".summary.json").read() == open(b + ".summary.json").read()


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
        outs.append((open("camp.csv", "rb").read(), open("camp.summary.json", "rb").read()))
    assert outs[0] == outs[1]
    # editing the file changes the hash, though its path stays the same
    model = tmp_path / "b" / "model.json"
    model.write_text(model.read_text() + "\n")
    assert main(args + ["model.json"]) == 0
    assert (json.loads(open("camp.summary.json").read())["config_hash"]
            != json.loads(outs[0][1])["config_hash"])


def test_campaign_seeds_are_per_trial(tmp_path, model_c2):
    prefix = str(tmp_path / "camp")
    main(["campaign", "--model", model_c2, "--n", "6", "--trials", "4",
          "--seed", "9", "--eps", "1.0", "--out", prefix])
    rows = list(csv.DictReader(
        line for line in open(prefix + ".csv").read().splitlines()
        if not line.startswith("#")))
    seeds = [int(r["seed"]) for r in rows]
    assert seeds == [trial_seed(9, i) for i in range(4)]
    assert len(set(seeds)) == 4


def test_campaign_requires_out(model_c2):
    assert main(["campaign", "--model", model_c2, "--n", "6",
                 "--trials", "2"]) == 2


def test_wsi_campaign_matches_csi_at_one_community(tmp_path, model_c1):
    outs = {}
    for mode in ("csi", "wsi"):
        prefix = str(tmp_path / mode)
        assert main(["campaign", "--model", model_c1, "--n", "6", "--trials", "4",
                     "--mode", mode, "--seed", "3", "--eps", "1.0",
                     "--out", prefix]) == 0
        rows = list(csv.DictReader(
            line for line in open(prefix + ".csv").read().splitlines()
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
