import json
from pathlib import Path

import pytest

from calderon.cli import main
from calderon.config import CONFIG_SCHEMA, load_config, validate_config
from calderon.errors import ConfigError, EigError, ExperimentError
from calderon.experiments import EXPERIMENT_NAMES, run_experiment
from calderon.extension import ExtensionSolver


def write_config(tmp_path, **overrides):
    cfg = {"experiment": "oracle-crosscheck", "dim": 1, "s": 0.5,
           "nodes": 40, "levels": 32, "seed": 3}
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_run_minimal_config(tmp_path, capsys):
    p = write_config(tmp_path)
    rc = main(["run", str(p), "--out", str(tmp_path / "out")])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    exp = summary["experiments"]["oracle-crosscheck"]
    assert "error" in exp["metrics"]["s=0.5"]
    out = capsys.readouterr().out
    assert "[PASS] oracle-crosscheck" in out


def test_invalid_s_names_field(tmp_path, capsys):
    p = write_config(tmp_path, s=1.2)
    rc = main(["run", str(p)])
    assert rc == 2
    assert "'s'" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="s"):
        validate_config({"experiment": "duality", "s": 1.2})


def test_unknown_experiment(tmp_path, capsys):
    cfg = validate_config({"experiment": "does-not-exist"})
    with pytest.raises(ExperimentError):
        run_experiment(cfg)
    p = write_config(tmp_path, experiment="does-not-exist")
    assert main(["run", str(p)]) == 2


@pytest.mark.parametrize("overrides", [
    {"experiment": "tikhonov-sweep", "nodes": 32, "levels": 24, "seed": 9},
    # three s values in one run: one table and three curves
    {"params": {"s_values": [0.25, 0.5, 0.75]}},
], ids=["tikhonov-sweep", "oracle-crosscheck-three-s"])
def test_determinism_byte_identical_outputs(tmp_path, overrides):
    p = write_config(tmp_path, **overrides)
    rc1 = main(["run", str(p), "--out", str(tmp_path / "a")])
    rc2 = main(["run", str(p), "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    names = [sorted(f.name for f in (tmp_path / run).iterdir()
                    if f.suffix in (".csv", ".dat")) for run in "ab"]
    assert any(name.endswith(".csv") for name in names[0])
    assert names[0] == names[1]
    for name in names[0]:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_csv_format(tmp_path):
    p = write_config(tmp_path)
    main(["run", str(p), "--out", str(tmp_path / "out")])
    csv = next((tmp_path / "out").glob("*.csv"))
    raw = csv.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert "," in lines[0]
    assert len(lines) >= 2


def test_list_has_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENT_NAMES:
        assert name in out
    assert len(EXPERIMENT_NAMES) == 7
    # static metadata names what each experiment exercises
    assert "vertical average" in out
    assert "Regularized recovery" in out


def test_schema_prints_valid_json(capsys):
    assert main(["schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema == CONFIG_SCHEMA
    assert "$schema" in schema


@pytest.mark.parametrize("raw, message", [
    ({"experiment": "duality", "s": 1.2},
     "field 's': 1.2 is greater than or equal to the maximum of 1"),
    ({"experiment": "duality", "nodes": 2},
     "field 'nodes': 2 is less than the minimum of 4"),
    ({"experiment": "duality", "bogus": 1},
     "field 'config': Additional properties are not allowed ('bogus' was unexpected)"),
    ({"dim": 2}, "field 'config': 'experiment' is a required property"),
    ({"experiment": "duality", "omega_box": [[0, 1, 2]]},
     "field 'omega_box.0': [0, 1, 2] is too long"),
    ({"experiment": "duality", "nodes": [4, "x"]},
     "field 'nodes.1': 'x' is not of type 'integer'"),
])
def test_schema_errors_keep_their_text(raw, message):
    """The validator is built once; the error chosen and its text are those
    of jsonschema.validate, which re-checked the schema on every call."""
    import jsonschema

    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as err:
        validate_config(raw)
    assert str(err.value) == message


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_alpha_schedule_validation():
    with pytest.raises(ConfigError, match="alphas"):
        validate_config({"experiment": "tikhonov-sweep",
                         "params": {"alphas": [1e-3, 1e-2]}})
    with pytest.raises(ConfigError, match="eps"):
        validate_config({"experiment": "tikhonov-sweep", "s": 0.5,
                         "params": {"eps": 0.9}})


@pytest.mark.parametrize("experiment, params, field", [
    ("oracle-crosscheck", {"s_values": []}, "params.s_values"),
    ("decay-slopes", {"dims": []}, "params.dims"),
    ("distinguishability", {"amplitudes": []}, "params.amplitudes"),
    ("tikhonov-sweep", {"alphas": []}, "params.alphas"),
    ("duality", {"refinements": -1}, "params.refinements"),
    ("bridge-residual", {"refinements": -2}, "params.refinements"),
    ("density", {"basis_size": 0}, "params.basis_size"),
    ("oracle-crosscheck", {"s_values": ["a"]}, "params.s_values"),
    ("distinguishability", {"amplitudes": [0.1, None]}, "params.amplitudes"),
    ("tikhonov-sweep", {"alphas": [1.0, "x"]}, "params.alphas"),
    ("decay-slopes", {"heights": [2.0, "high"]}, "params.heights"),
    ("decay-slopes", {"dims": [1.5]}, "params.dims"),
    ("decay-slopes", {"dims": ["2"]}, "params.dims"),
    ("tikhonov-sweep", {"eps": "small"}, "params.eps"),
    ("tikhonov-sweep", {"noise": "loud"}, "params.noise"),
    ("tikhonov-sweep", {"noise": None}, "params.noise"),
    ("duality", {"refinements": True}, "params.refinements"),
    ("bridge-residual", {"tolerance": "tight"}, "params.tolerance"),
    ("oracle-crosscheck", {"bump_width": "wide"}, "params.bump_width"),
    ("bridge-residual", {"tolerence": 1e-12}, "params.tolerence"),
    ("tikhonov-sweep", {"fine_data": "no"}, "params.fine_data"),
    ("density", {"levels": 30.7}, "params.levels"),
    ("oracle-crosscheck", {"bump_center": [1.8, 0.5]}, "params.bump_center"),
])
def test_degenerate_params_are_config_errors(tmp_path, capsys, experiment,
                                             params, field):
    """Empty sweeps, entries of the wrong type, counts below their least
    useful value and keys the experiment does not read are refused by name
    with exit code 2, before any experiment runs."""
    p = write_config(tmp_path, experiment=experiment, params=params)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, nodes, params, active", [
    ("oracle-crosscheck", 14, {}, 15625),
    ("bridge-residual", 14, {"refinements": 1}, 15625),
    ("tikhonov-sweep", 20, {}, 5832),
    ("tikhonov-sweep", 14, {"fine_data": True}, 15625),
])
def test_dense_cap_is_checked_before_any_extension_build(
        tmp_path, capsys, monkeypatch, experiment, nodes, params, active):
    """In 3D the grid the dense route runs on (the refined rung, or the one
    grid of a tikhonov-sweep without fine data) has more active nodes than
    the cap: the run is refused (exit 2) before any extension solver is
    built."""
    def no_build(*args, **kwargs):
        raise AssertionError("extension solver built before the cap check")

    monkeypatch.setattr(ExtensionSolver, "__init__", no_build)
    p = write_config(tmp_path, experiment=experiment, dim=3, nodes=nodes,
                     levels=48, params=params)
    with pytest.raises(EigError, match=f"{active} active nodes"):
        run_experiment(load_config(p))
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert "dense-eigendecomposition cap" in capsys.readouterr().err


def test_failed_tolerance_gives_exit_code_one(tmp_path):
    p = write_config(tmp_path, experiment="bridge-residual", nodes=32,
                     levels=24, params={"tolerance": 1e-12, "refinements": 1})
    rc = main(["run", str(p), "--out", str(tmp_path / "out")])
    assert rc == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False


def test_fine_data_flag_runs(tmp_path):
    p = write_config(tmp_path, experiment="tikhonov-sweep", nodes=32,
                     levels=24, params={"fine_data": True})
    rc = main(["run", str(p), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    metrics = summary["experiments"]["tikhonov-sweep"]["metrics"]
    # data from the finer forward solve is no longer exactly attainable, so
    # only the reconstruction quality is asserted, not the exit code
    assert metrics["reconstruction_error_values"] < 0.2
    assert rc in (0, 1)


def test_output_dir_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = write_config(tmp_path, output="from_config")
    assert main(["run", str(p)]) == 0
    assert Path(tmp_path / "from_config" / "summary.json").exists()


def test_run_without_malloc_trim(tmp_path, monkeypatch):
    """Where the C library has no malloc_trim, a run still completes."""
    import ctypes

    from calderon import experiments

    class NoTrim:
        def __init__(self, name):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoTrim)
    experiments._release_freed_memory()
    p = write_config(tmp_path)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
