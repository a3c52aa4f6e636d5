"""Every function the benchmark tracer wraps exists in the package.

`perfbench/tracing.py` looks its layers up by module and name, so deleting
or renaming a traced function breaks ``perfbench/run.py --trace 1`` and
``--self-check`` while the rest of the suite stays green.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for layer, module, name in tracing.LAYERS:
        mod = importlib.import_module("seifert_orbifolds." + module)
        assert callable(getattr(mod, name, None)), (layer, module, name)
