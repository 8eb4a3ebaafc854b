"""The benchmark tracer's wrap targets still name callables.

``perfbench/tracer.py`` wraps each layer at the module attribute its caller
looks up at call time.  A rename in the package would leave a target
dangling and break only the traced benchmark run, so the suite loads the
tracer by path and resolves every target.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for _kind, module, attr in tracer.TARGETS:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr}"
