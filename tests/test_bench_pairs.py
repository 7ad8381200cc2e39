"""The paired-benchmark summarizer (scripts/bench_pairs.py) on canned runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = {"nproc": 2, "OPENBLAS_NUM_THREADS": "1"}


def _result(wall, setup, rate, rss, failed=0):
    return {"metrics": {"wall_s": wall, "setup_s": setup, "data_per_s": rate,
                        "peak_rss_mb": rss},
            "attempted": 100, "failed": failed, "env": ENV}


def _pairs(parent_setup, change_setup):
    """Pairs whose setup_s values are given; the other metrics tie, except
    data_per_s, which the change loses by 1% in every pair."""
    return [{"parent": _result(1.0, p, 100.0, 50.0),
             "change": _result(1.0, c, 99.0, 50.0)}
            for p, c in zip(parent_setup, change_setup)]


def _runs():
    parent = [0.30, 0.28, 0.31, 0.29, 0.30, 0.32, 0.27, 0.30, 0.29, 0.31]
    change = [0.23, 0.24, 0.22, 0.23, 0.25, 0.23, 0.24, 0.22, 0.23, 0.29]
    # seed 5: the change wins 8 pairs of 10, short of nine tenths
    held_out = change[:8] + [0.40, 0.41]
    runs = {w["name"]: {1: _pairs(parent, parent)} for w in SPEC["workloads"]}
    runs["recovery-1d"] = {1: _pairs(parent, change), 5: _pairs(parent, held_out)}
    return runs


def test_summary_counts_pairs_quartiles_and_bounds():
    record = bench_pairs.summarize(SPEC, _runs(), ("recovery-1d", "setup_s"), 5)
    rec = record["workloads"]["recovery-1d"]
    assert rec["seeds"] == [1, 5] and rec["pairs_run"] == 20
    assert rec["failed"] == {"parent": 0, "change": 0}
    assert rec["attempted"] == {"parent": 2000, "change": 2000}
    setup = rec["metrics"]["setup_s"]
    assert setup["parent"]["runs"][:2] == [0.30, 0.28]
    assert setup["parent"]["median"] == pytest.approx(0.30)
    # inclusive quartiles of the 20 parent runs (each value twice)
    assert setup["parent"]["q1"] == pytest.approx(0.29)
    assert setup["parent"]["q3"] == pytest.approx(0.31)
    assert (setup["pairs_won"], setup["pairs_lost"]) == (18, 2)
    assert setup["within_bound"] and setup["median_gap_exceeds_parent_iqr"]
    assert setup["median_change_rel"] == pytest.approx(0.23 / 0.30 - 1.0)

    # a tie counts for neither side; 1% lower data_per_s loses every pair
    # but stays within the 25% bound
    wall = rec["metrics"]["wall_s"]
    assert (wall["pairs_won"], wall["pairs_lost"]) == (0, 0)
    rate = rec["metrics"]["data_per_s"]
    assert (rate["pairs_won"], rate["pairs_lost"]) == (0, 20)
    assert rate["within_bound"] and not rate["median_gap_exceeds_parent_iqr"]

    claim = record["claim"]
    assert claim["per_seed"]["1"]["pairs_won"] == 10
    assert claim["per_seed"]["5"]["pairs_won"] == 8
    assert claim["held_out_seed"] == 5 and not claim["met"]
    assert record["host"] == ENV


def test_claim_met_needs_every_seed_and_bounds_follow_direction():
    runs = _runs()
    runs["recovery-1d"][5] = runs["recovery-1d"][1]
    record = bench_pairs.summarize(SPEC, runs, ("recovery-1d", "setup_s"), 5)
    assert record["claim"]["met"]
    # data_per_s 30% lower is outside its bound; peak_rss_mb 30% higher too
    runs["battery"][1] = [{"parent": _result(1.0, 0.3, 100.0, 50.0),
                           "change": _result(1.0, 0.3, 70.0, 65.0)}] * 4
    battery = bench_pairs.summarize(SPEC, runs, ("recovery-1d", "setup_s"), 5)[
        "workloads"]["battery"]["metrics"]
    assert not battery["data_per_s"]["within_bound"]
    assert not battery["peak_rss_mb"]["within_bound"]
    assert battery["wall_s"]["within_bound"]


def test_claim_needs_ten_pairs_on_every_seed():
    """Winning every pair is not enough when fewer than ten pairs ran."""
    runs = _runs()
    runs["recovery-1d"][5] = runs["recovery-1d"][1]
    runs["recovery-1d"][1] = runs["recovery-1d"][1][:9]
    claim = bench_pairs.summarize(SPEC, runs, ("recovery-1d", "setup_s"), 5)["claim"]
    assert claim["per_seed"]["1"]["pairs_won"] == claim["per_seed"]["1"]["pairs_run"] == 9
    assert claim["per_seed"]["1"]["median_gap_exceeds_parent_iqr"]
    assert not claim["met"]


def test_claim_needs_no_larger_failed_share():
    """A change that fails more of the claimed workload's operations does
    not meet the claim, however fast; failures elsewhere do not count."""
    runs = _runs()
    runs["recovery-1d"][5] = runs["recovery-1d"][1]
    runs["battery"][1][0]["change"]["failed"] = 3
    assert bench_pairs.summarize(SPEC, runs, ("recovery-1d", "setup_s"), 5)["claim"]["met"]
    runs["recovery-1d"][5] = [dict(p, change=dict(p["change"], failed=1))
                              for p in runs["recovery-1d"][1]]
    record = bench_pairs.summarize(SPEC, runs, ("recovery-1d", "setup_s"), 5)
    assert record["workloads"]["recovery-1d"]["failed"] == {"parent": 0, "change": 10}
    assert not record["claim"]["met"]


def test_record_without_a_claim_keeps_the_bounds():
    """With no claim every workload runs at one seed, the record's claim is
    null and each metric still says whether it stays within its bound."""
    runs = {w: {1: by_seed[1]} for w, by_seed in _runs().items()}
    runs["battery"][1] = [{"parent": _result(1.0, 0.3, 100.0, 50.0),
                           "change": _result(1.0, 0.3, 70.0, 50.0)}] * 10
    record = bench_pairs.summarize(SPEC, runs)
    assert record["claim"] is None and record["host"] == ENV
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    recovery = record["workloads"]["recovery-1d"]
    assert recovery["seeds"] == [1] and recovery["pairs_run"] == 10
    assert recovery["metrics"]["setup_s"]["within_bound"]
    battery = record["workloads"]["battery"]["metrics"]
    assert not battery["data_per_s"]["within_bound"]
    assert battery["wall_s"]["within_bound"]


def test_layer_summary_takes_per_side_medians():
    pairs = [{"parent": {"metrics": {"a_s": a, "b": 1.0}},
              "change": {"metrics": {"a_s": a / 2, "b": 1.0}}} for a in (1.0, 3.0, 2.0)]
    pairs[0]["change"]["metrics"]["only_here"] = 5.0
    layers = bench_pairs.summarize_layers(pairs)
    assert layers == {"runs_per_side": 3, "a_s": {"parent": 2.0, "change": 1.0},
                      "b": {"parent": 1.0, "change": 1.0}}


def test_every_run_is_pinned_to_the_highest_allowed_cpu(monkeypatch):
    """Each perfbench child pins itself, before exec, to the highest CPU of
    the script's affinity set, and the run's environment record names it."""
    pinned, calls = [], []
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {0, 3, 1})
    monkeypatch.setattr(bench_pairs.os, "sched_setaffinity",
                        lambda pid, cpus: pinned.append((pid, set(cpus))))

    def fake_run(cmd, **kwargs):
        calls.append(cmd)
        kwargs["preexec_fn"]()  # what the child runs before exec
        record = {"record": {"env": dict(ENV)}}
        result = {"metrics": {"wall_s": {"value": 1.0}}, "attempted": 3, "failed": 0}
        return bench_pairs.subprocess.CompletedProcess(
            cmd, 0, stdout=f"{json.dumps(record)}\n{json.dumps(result)}\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    pairs = bench_pairs.run_pairs({"parent": Path("p"), "change": Path("c")},
                                  "recovery-1d", 1, 2, 1.0)
    assert len(calls) == 4 and pinned == [(0, {3})] * 4
    assert all(p[s]["env"] == {**ENV, "cpu": 3} for p in pairs for s in bench_pairs.SIDES)
