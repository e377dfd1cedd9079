import json

import numpy as np
import pytest

import imdot.ot
from imdot.cli import _toy_config, build_parser, main
from imdot.datagen import ToyConfig, shared_atom_label_shift
from imdot.measures import (
    LabeledDataset,
    cost_matrix,
    empirical_measure,
    load_dataset,
    save_dataset,
)
from imdot.ot import TransportPlanSet, partial_ot_global, plan_set_to_dict


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


def test_toy_flag_defaults_are_the_config_defaults():
    for command in ("gen", "sweep"):
        assert _toy_config(build_parser().parse_args([command])) == ToyConfig()


def test_solve_names_an_empty_csv(tmp_path, capsys):
    gen_dir = tmp_path / "data"
    assert run("gen", *GEN_FLAGS, "--out", gen_dir) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run("solve", "--source", gen_dir / "source.csv", "--target", empty,
               "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"solve failed: {empty}: expected a header")


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


def test_solve_reports_a_malformed_row(tmp_path, capsys):
    gen_dir = tmp_path / "data"
    assert run("gen", *GEN_FLAGS, "--out", gen_dir) == 0
    source = gen_dir / "source.csv"
    lines = source.read_text().splitlines()
    source.write_text("\n".join(lines + ["1.0,2.0,1,9,9"]) + "\n")
    assert run("solve", "--source", source, "--target", gen_dir / "target.csv",
               "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("solve failed: ")
    assert f"source.csv, line {len(lines) + 1}: 5 fields, the header has 3" in err


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
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["beta_vec"] == [0.0, beta2]
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


def test_solve_global_writes_the_global_relaxation(tmp_path):
    gen_dir = tmp_path / "data"
    assert run("gen", *GEN_FLAGS, "--out", gen_dir) == 0
    out = tmp_path / "solve"
    assert run("solve", "--source", gen_dir / "source.csv",
               "--target", gen_dir / "target.csv",
               "--mode", "global", "--beta", 0.5, "--out", out) == 0
    payload = json.loads((out / "plan.json").read_text())
    source = load_dataset(gen_dir / "source.csv")
    target = load_dataset(gen_dir / "target.csv", n_classes=source.n_classes)
    source_measure = empirical_measure(source)
    value, plan = partial_ot_global(empirical_measure(target), source_measure,
                                    cost_matrix(target.points, source.points), 0.5)
    expected = plan_set_to_dict(TransportPlanSet((plan,), np.array([0.5]), value))
    assert {key: payload[key] for key in expected} == expected
    (audit,) = payload["capacity_audit"]
    assert audit["capacity"] == (1 + 0.5) * source_measure.total_mass
    assert audit["slack"] == audit["capacity"] - float(plan.sum())


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


def test_sweep_reruns_are_byte_identical_on_the_coarse_start(monkeypatch, tmp_path):
    # At n = 60 every walk starts from the lifted support of its coarsened
    # problem; that start takes no rng, so reruns write the same bytes.
    lifted = []
    coarse_arcs = imdot.ot._coarse_arcs

    def recorded(target, *args):
        arcs = coarse_arcs(target, *args)
        lifted.append((target.n_atoms, 0 if arcs is None else len(arcs[0])))
        return arcs

    monkeypatch.setattr(imdot.ot, "_coarse_arcs", recorded)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    flags = ["--k", 3, "--n", 60, "--draws", 2, "--beta-grid", "0,0.5,1",
             "--seed", 5, "--jobs", 1]
    assert run("sweep", *flags, "--out", out1) == 0
    assert run("sweep", *flags, "--out", out2) == 0
    assert lifted and all(n_atoms == 60 and n_lifted > 0 for n_atoms, n_lifted in lifted)
    for name in ("draws.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_sweep_single_beta_single_draw(tmp_path):
    out = tmp_path / "w"
    assert run("sweep", "--k", 3, "--n", 36, "--draws", 1, "--beta-grid", "0",
               "--seed", 5, "--jobs", 1, "--out", out) == 0
    lines = (out / "draws.csv").read_text().splitlines()
    objectives = [float(line.split(",")[5]) for line in lines[1:]]
    assert objectives[0] == pytest.approx(objectives[1], abs=1e-8)


def usage_error(capsys, *argv):
    """Exit code and stderr of an ``imdot`` call that its parser rejects."""
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    return exc.value.code, capsys.readouterr().err


def test_sweep_beta_grid_rejects_bad_lists(tmp_path, capsys):
    out = tmp_path / "w"
    for bad in ("0,x", "0,-0.5", "0,inf", "nan", "0,,1", ""):
        code, err = usage_error(capsys, "sweep", "--k", 3, "--n", 36, "--draws", 1,
                                "--beta-grid", bad, "--jobs", 1, "--out", out)
        assert code == 2 and "--beta-grid" in err, bad
    assert not out.exists()


def test_toy_parameters_must_be_finite(tmp_path, capsys):
    out = tmp_path / "w"
    for command in (["gen"], ["sweep", "--draws", 1, "--beta-grid", "0", "--jobs", 1]):
        for flag in ("--sigma", "--eta", "--theta"):
            for bad in ("nan", "inf", "-inf", "x"):
                code, err = usage_error(capsys, *command, "--k", 3, "--n", 36,
                                        flag, bad, "--out", out)
                assert code == 2 and f"argument {flag}" in err, (command, flag, bad)
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["gen"], ["sweep", "--draws", 1, "--beta-grid", "0", "--jobs", 1]])
@pytest.mark.parametrize("flags, cause", [
    (["--k", 1], "need at least two classes"),
    (["--sigma", -1], "sigma must be positive"),
    (["--eta", -1], "eta must be nonnegative"),
    (["--n", 2, "--k", 3], "sample sizes must be at least the class count"),
    (["--n-target", -5], "sample sizes must be at least the class count"),
    (["--seed", -1], "seed must be a nonnegative integer, got -1"),
])
def test_an_invalid_toy_config_is_a_usage_error(tmp_path, capsys, command, flags, cause):
    out = tmp_path / "w"
    code, err = usage_error(capsys, *command, *flags, "--out", out)
    assert code == 2 and f"imdot {command[0]}: error: {cause}" in err
    assert not out.exists()


def test_an_invalid_toy_config_from_a_config_file_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 1}))
    code, err = config_error(tmp_path, capsys, config)
    assert code == 2 and "need at least two classes" in err


def test_sweep_draws_and_jobs_are_checked_by_the_parser(tmp_path, capsys):
    out = tmp_path / "w"
    for flag, bad in (("--draws", 0), ("--draws", -1), ("--draws", "x"),
                      ("--jobs", 0), ("--jobs", -3), ("--jobs", 1.5)):
        counts = {"--draws": 1, "--jobs": 1, flag: bad}
        code, err = usage_error(capsys, "sweep", "--k", 3, "--n", 36, "--beta-grid", "0",
                                *(a for item in counts.items() for a in item),
                                "--out", out)
        assert code == 2 and f"argument {flag}" in err, (flag, bad)
    assert not out.exists()


def test_solve_perclass_beta_vec_is_checked_by_the_parser(tmp_path, capsys):
    out = tmp_path / "out"
    solve = ["solve", "--source", tmp_path / "s.csv", "--target", tmp_path / "t.csv",
             "--mode", "perclass", "--out", out]
    code, err = usage_error(capsys, *solve)
    assert code == 2 and "--mode perclass needs --beta-vec" in err
    for bad in ("0,x", "0,-1"):
        code, err = usage_error(capsys, *solve, "--beta-vec", bad)
        assert code == 2 and "--beta-vec" in err, bad
    assert not out.exists()


def test_solve_beta_vec_outside_perclass_is_a_usage_error(tmp_path, capsys):
    # Typed or from a config file, a per-class vector that the mode would
    # ignore, and record in manifest.json as if used, exits 2.
    out = tmp_path / "out"
    solve = ["solve", "--source", tmp_path / "s.csv", "--target", tmp_path / "t.csv",
             "--out", out]
    for mode in ("global", "split"):
        code, err = usage_error(capsys, *solve, "--mode", mode, "--beta", "0.3",
                                "--beta-vec", "0.9,0.1")
        assert code == 2 and f"--beta-vec applies to --mode perclass only, not --mode {mode}" \
            in err, mode
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "split", "beta": 0.3, "beta_vec": "0.9,0.1"}))
    code, err = usage_error(capsys, *solve, "--config", config)
    assert code == 2 and "--beta-vec applies to --mode perclass only" in err
    assert not out.exists()


def test_solve_beta_is_checked_by_the_parser(tmp_path, capsys):
    out = tmp_path / "out"
    for mode in ("global", "split"):
        for bad in ("-1", "nan", "inf", "x"):
            code, err = usage_error(capsys, "solve", "--source", tmp_path / "s.csv",
                                    "--target", tmp_path / "t.csv", "--mode", mode,
                                    "--beta", bad, "--out", out)
            assert code == 2 and "argument --beta:" in err, (mode, bad)
    assert not out.exists()


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
    for bad in ({"mode": "sideways"}, {"timings": 1}, {"beta_grid": [0, 0.5]},
                {"beta_grid": "0,x"}):
        config.write_text(json.dumps(bad))
        code, err = config_error(tmp_path, capsys, config, command="sweep")
        (key,) = bad
        assert code == 2 and repr(key) in err
