"""Spans around the public functions of each `seifert_orbifolds` module.

The wrappers are installed from outside the package: every module of the
package whose namespace holds the original function gets the wrapper, so
calls through ``from .core import normalize`` in `classify` are recorded
as well as calls through `core` itself.  Spans are kept in flat arrays
while the workload runs and are written out once at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter_ns

# (layer, module, function).  Several functions may share one layer name.
LAYERS = (
    ("core.normalize", "core", "normalize"),
    ("core.validate", "core", "validate"),
    ("core.validate", "core", "check_valid"),
    ("groups.quotient", "groups", "quotient_hopf"),
    ("groups.quotient", "groups", "quotient_antihopf"),
    ("groups.enumerate", "groups", "enumerate_quotient_groups"),
    ("classify.fibration_class", "classify", "fibration_class"),
    ("classify.fibration_count", "classify", "fibration_count"),
    ("classify.enumerate_fibrations", "classify", "enumerate_fibrations"),
    ("classify.single_step", "classify", "single_step"),
    ("classify.enumerate_bridges", "classify", "enumerate_bridges"),
    ("classify.double_cover", "classify", "double_cover"),
    ("classify.diffeo_key", "classify", "diffeo_key"),
    ("classify.diffeo_signature", "classify", "diffeo_signature"),
    ("classify.are_diffeomorphic", "classify", "are_diffeomorphic"),
    ("lens.classical_from_fibration", "lens", "classical_from_fibration"),
    ("lens.lens_from_classical", "lens", "lens_from_classical"),
    ("lens.lens_equiv", "lens", "lens_equiv"),
    ("cli.run_command", "cli", "run_command"),
    ("cli.parse_fibration", "cli", "parse_fibration"),
    ("cli.expression_report", "cli", "expression_report"),
)

# check_valid is counted under core.validate, so the call it makes to
# validate inside `core` is left unwrapped rather than counted twice.
_KEEP_ORIGINAL = {("core", "validate")}

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))
CLASSIFY_ENTRY = frozenset(n for n in LAYER_NAMES if n.startswith("classify."))


class Tracer:
    """Records one span (layer, parent span, start, end) per wrapped call."""

    def __init__(self, package: str):
        self.package = package
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.is_call = array("b")
        self.classify_args = []
        self._stack = []
        self._patched = []

    def _record(self, layer_id, is_call):
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.is_call.append(is_call)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start[idx] = perf_counter_ns()
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer_id, fn, keep_args):
        record, close, args_log = self._record, self._close, self.classify_args

        if inspect.isgeneratorfunction(fn):
            # One call per generator; each resumption is a span of its own.
            def wrapper(*args, **kwargs):
                close(record(layer_id, 1))
                gen = fn(*args, **kwargs)
                while True:
                    idx = record(layer_id, 0)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                if keep_args:
                    args_log.append(args)
                idx = record(layer_id, 1)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = {name[len(self.package) + 1:]: mod for name, mod in sys.modules.items()
                   if name == self.package or name.startswith(self.package + ".")}
        for layer, modname, attr in LAYERS:
            original = getattr(modules[modname], attr)
            layer_id = LAYER_NAMES.index(layer)
            wrapper = self._wrap(layer_id, original, layer in CLASSIFY_ENTRY)
            for short, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original and (short, key) not in _KEEP_ORIGINAL:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def summary(self, normalize):
        """Calls and self seconds per layer, plus the classify input reuse.

        `normalize` is the unwrapped library function, used to count the
        distinct normalized orbifolds passed to the classify entry points.
        """
        n_layers = len(LAYER_NAMES)
        calls = [0] * n_layers
        self_ns = [0] * n_layers
        layer, parent, start, end, is_call = (self.layer, self.parent, self.start,
                                              self.end, self.is_call)
        for i in range(len(start)):
            dur = end[i] - start[i]
            self_ns[layer[i]] += dur
            calls[layer[i]] += is_call[i]
            if parent[i] >= 0:
                self_ns[layer[parent[i]]] -= dur
        out = {}
        for i, name in enumerate(LAYER_NAMES):
            out[name + ".calls"] = (calls[i], "count")
            out[name + ".self_s"] = (self_ns[i] / 1e9, "s")
        distinct = set()
        for args in self.classify_args:
            for arg in args:
                if hasattr(arg, "cone_invariants"):
                    distinct.add(normalize(arg))
        entry_calls = len(self.classify_args)
        out["classify.distinct_inputs"] = (len(distinct), "count")
        out["classify.useful_ratio"] = (len(distinct) / entry_calls if entry_calls else 0.0,
                                        "ratio")
        return out

    def write(self, path):
        """Header line in JSON, then the span columns as raw arrays."""
        with open(path, "wb") as fh:
            header = {"layers": list(LAYER_NAMES), "spans": len(self.start),
                      "columns": ["layer:i", "parent:i", "start_ns:q", "end_ns:q", "is_call:b"],
                      "byteorder": sys.byteorder}
            fh.write((json.dumps(header) + "\n").encode())
            for column in (self.layer, self.parent, self.start, self.end, self.is_call):
                column.tofile(fh)
