"""The traced benchmark's entry points (perfbench/spans.py) exist in the
library, so renaming or deleting one fails here and not only in a traced run,
where its per-layer metrics would read 0."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_spans",
                                               ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
# the module's dataclasses look their module up in sys.modules
sys.modules[_spec.name] = spans
_spec.loader.exec_module(spans)


def test_every_traced_entry_point_resolves():
    """The tracer finds every entry point: each module imports and names the
    function, or the class defining the method, that it wraps."""
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == [], f"traced entry points missing: {tracer.absent}"
