import json
from pathlib import Path

import pytest

from calderon.cli import main
from calderon.config import CONFIG_SCHEMA, validate_config
from calderon.errors import ConfigError, ExperimentError
from calderon.experiments import EXPERIMENT_NAMES, run_experiment


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


def test_determinism_byte_identical_outputs(tmp_path):
    p = write_config(tmp_path, experiment="tikhonov-sweep", nodes=32,
                     levels=24, seed=9)
    rc1 = main(["run", str(p), "--out", str(tmp_path / "a")])
    rc2 = main(["run", str(p), "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    csvs = sorted(f.name for f in (tmp_path / "a").glob("*.csv"))
    assert csvs
    for name in csvs:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    dats = sorted(f.name for f in (tmp_path / "a").glob("*.dat"))
    for name in dats:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_threaded_run_writes_the_same_files(tmp_path, monkeypatch):
    """oracle-crosscheck maps its s values over CALDERON_THREADS workers; two
    workers write the same tables and curves, byte for byte, as one."""
    p = write_config(tmp_path, params={"s_values": [0.25, 0.5, 0.75]})
    for threads in ("1", "2"):
        monkeypatch.setenv("CALDERON_THREADS", threads)
        assert main(["run", str(p), "--out", str(tmp_path / threads)]) == 0
    names = sorted(f.name for f in (tmp_path / "1").iterdir()
                   if f.suffix in (".csv", ".dat"))
    assert len(names) == 4
    assert names == sorted(f.name for f in (tmp_path / "2").iterdir()
                           if f.suffix in (".csv", ".dat"))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "2" / name).read_bytes()


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
])
def test_degenerate_params_are_config_errors(tmp_path, capsys, experiment,
                                             params, field):
    """Empty sweeps, non-numeric entries and counts below their least useful
    value are refused by name with exit code 2, before any experiment runs."""
    p = write_config(tmp_path, experiment=experiment, params=params)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
