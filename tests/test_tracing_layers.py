"""Every name the benchmark reads from the package exists in it.

`perfbench/tracing.py` looks its layers up by module and name, and
`perfbench/workloads.py` and `perfbench/run.py` read package names as
``lib.<module>.<name>``.  Deleting or renaming one of them breaks
``perfbench/run.py`` (a workload, ``--trace 1`` or ``--self-check``) while
the rest of the suite stays green.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
_LIB_READ = re.compile(r"\blib\.(\w+)\.(\w+)")


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    for layer, module, name in tracing.LAYERS:
        mod = importlib.import_module("seifert_orbifolds." + module)
        assert callable(getattr(mod, name, None)), (layer, module, name)


def _lib_reads(script):
    return sorted(set(_LIB_READ.findall((PERFBENCH / script).read_text(encoding="utf-8"))))


@pytest.mark.parametrize("script", ["workloads.py", "run.py"])
def test_every_benchmark_read_resolves(script):
    reads = _lib_reads(script)
    assert reads
    for module, name in reads:
        mod = importlib.import_module("seifert_orbifolds." + module)
        assert hasattr(mod, name), (script, module, name)

