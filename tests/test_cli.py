import json

import numpy as np
import pytest

from imdot.cli import main
from imdot.datagen import shared_atom_label_shift
from imdot.measures import LabeledDataset, save_dataset


def run(*argv):
    return main([str(a) for a in argv])


GEN_FLAGS = ["--k", 3, "--eta", 1, "--theta", 0, "--n", 36, "--seed", 7]


def test_gen_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("gen", *GEN_FLAGS, "--out", out1) == 0
    assert run("gen", *GEN_FLAGS, "--out", out2) == 0
    for name in ("source.csv", "target.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "gen"
    for name in manifest["outputs"]:
        assert (out1 / name).stat().st_size > 0
    config = json.loads((out1 / "config.json").read_text())
    assert config["sigma"] == 0.35


def test_solve_split_beta_zero_matches_global(tmp_path):
    gen_dir = tmp_path / "data"
    assert run("gen", *GEN_FLAGS, "--out", gen_dir) == 0
    split_dir, global_dir = tmp_path / "split", tmp_path / "glob"
    common = ["--source", gen_dir / "source.csv", "--target", gen_dir / "target.csv"]
    assert run("solve", *common, "--mode", "split", "--beta", 0, "--out", split_dir) == 0
    assert run("solve", *common, "--mode", "global", "--beta", 0, "--out", global_dir) == 0
    v_split = json.loads((split_dir / "plan.json").read_text())["objective"]
    v_glob = json.loads((global_dir / "plan.json").read_text())["objective"]
    assert v_split == pytest.approx(v_glob, abs=1e-8)


def test_solve_perclass_on_shared_atom_fixture(tmp_path):
    source_m, conds, target_m = shared_atom_label_shift(
        [[[0.0, 0.0]], [[1.0, 0.0]]], [0.8, 0.2], [0.5, 0.5])
    # datasets carrying the same five-atom geometry with repeats
    rng = np.random.default_rng(0)
    reps_s = rng.choice(2, size=20, p=[0.8, 0.2]) + 1
    source = LabeledDataset(source_m.points[reps_s - 1], reps_s, 2)
    reps_t = np.repeat([1, 2], 10)
    target = LabeledDataset(target_m.points[reps_t - 1], reps_t, 2)
    save_dataset(source, tmp_path / "s.csv")
    save_dataset(target, tmp_path / "t.csv")
    out = tmp_path / "out"
    beta2 = 0.5 - (source.labels == 2).mean()  # exact per-class threshold
    assert run("solve", "--source", tmp_path / "s.csv", "--target", tmp_path / "t.csv",
               "--mode", "perclass", "--beta-vec", f"0,{beta2}",
               "--svg", "--out", out) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["objective"] == pytest.approx(0.0, abs=1e-9)
    audit = payload["capacity_audit"]
    assert all(entry["slack"] >= -1e-9 for entry in audit)
    svg = (out / "plan.svg").read_text()
    assert svg.startswith("<svg") and "circle" in svg and "polygon" in svg


def test_solve_global_svg_is_dotted(tmp_path):
    gen_dir = tmp_path / "data"
    assert run("gen", *GEN_FLAGS, "--out", gen_dir) == 0
    out = tmp_path / "solve"
    assert run("solve", "--source", gen_dir / "source.csv",
               "--target", gen_dir / "target.csv",
               "--mode", "global", "--beta", 0.5, "--svg", "--out", out) == 0
    assert "stroke-dasharray" in (out / "plan.svg").read_text()


def test_sweep_outputs(tmp_path):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    flags = ["--k", 3, "--n", 36, "--draws", 2, "--beta-grid", "0,0.5",
             "--seed", 5, "--jobs", 1]
    assert run("sweep", *flags, "--out", out1) == 0
    assert run("sweep", *flags, "--out", out2) == 0
    assert (out1 / "draws.csv").read_bytes() == (out2 / "draws.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    lines = (out1 / "summary.csv").read_text().splitlines()
    assert lines[0] == "beta,median_diff,min_diff,max_diff"
    assert len(lines) == 3
    row0 = lines[1].split(",")
    assert float(row0[0]) == 0.0


def test_sweep_single_beta_single_draw(tmp_path):
    out = tmp_path / "w"
    assert run("sweep", "--k", 3, "--n", 36, "--draws", 1, "--beta-grid", "0",
               "--seed", 5, "--jobs", 1, "--out", out) == 0
    lines = (out / "draws.csv").read_text().splitlines()
    objectives = [float(line.split(",")[5]) for line in lines[1:]]
    assert objectives[0] == pytest.approx(objectives[1], abs=1e-8)


def test_check_suite_exit_codes(tmp_path, capsys):
    assert run("check", "--suite", "uncertainty", "--out", tmp_path) == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert all(entry["passed"] for entry in report)
    names = {entry["name"] for entry in report}
    assert "entropy_ordering" in names


def test_config_file_defaults(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 4, "n_source": 40, "seed": 9}))
    out = tmp_path / "out"
    assert run("gen", "--config", config, "--eta", 0, "--out", out) == 0
    meta = json.loads((out / "config.json").read_text())
    assert meta["n_classes"] == 4 and meta["seed"] == 9 and meta["eta"] == 0


def test_typed_flag_beats_config_value(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"eta": 2.0, "n_source": 40, "seed": 9}))
    out = tmp_path / "out"
    assert run("gen", "--config", config, "--eta", 0, "--out", out) == 0
    meta = json.loads((out / "config.json").read_text())
    assert meta["eta"] == 0 and meta["n_source"] == 40


def test_flag_alias_beats_config_value(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_source": 40, "seed": 9}))
    out = tmp_path / "out"
    assert run("gen", "--config", config, "--n", 20, "--out", out) == 0
    meta = json.loads((out / "config.json").read_text())
    assert meta["n_source"] == 20 and meta["seed"] == 9


def test_config_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_sorce": 40, "seed": 9, "beta-grid": "0"}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run("gen", "--config", config, "--out", out)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'n_sorce'" in err and "'beta-grid'" in err and "'seed'" not in err
    assert not out.exists()


def config_error(tmp_path, capsys, config, command="gen"):
    """Exit code and stderr of ``imdot <command> --config <config>``."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(command, "--config", config, "--out", out)
    assert not out.exists()
    return exc.value.code, capsys.readouterr().err


def test_config_missing_file(tmp_path, capsys):
    missing = tmp_path / "nowhere.json"
    code, err = config_error(tmp_path, capsys, missing)
    assert code == 2 and str(missing) in err and "cannot read" in err


def test_config_not_json(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text("k = 3\n")
    code, err = config_error(tmp_path, capsys, config)
    assert code == 2 and str(config) in err and "not a JSON file" in err


def test_config_value_the_flag_rejects(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    for bad in ({"k": 3.5}, {"k": True}, {"eta": "high"}):
        config.write_text(json.dumps(bad))
        code, err = config_error(tmp_path, capsys, config)
        (key,) = bad
        assert code == 2 and str(config) in err and repr(key) in err
    for bad in ({"mode": "sideways"}, {"timings": 1}, {"beta_grid": [0, 0.5]}):
        config.write_text(json.dumps(bad))
        code, err = config_error(tmp_path, capsys, config, command="sweep")
        (key,) = bad
        assert code == 2 and repr(key) in err
