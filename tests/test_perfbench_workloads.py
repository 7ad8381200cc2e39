"""One round of each benchmark workload (perfbench/workloads.py) passes every
gate, so a change that drops an attribute or function the benchmark reads
fails here and not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
# the module's dataclasses look their module up in sys.modules
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_round_passes_every_gate(name, tmp_path):
    result = workloads.WORKLOADS[name](1, tmp_path).run_round()
    assert result.gates and result.latencies
    assert [g for g in result.gates if not g.ok] == []
