"""Span tracer for the benchmark's traced runs.

The tracer wraps, from outside the program, the public functions of each
factcancel module and the arithmetic methods of its public classes.  It then
rebinds every name under which one factcancel module imported another's
function (``hyper.certify_system``, ``constcoef.spectral``, ...), so calls
between modules are traced too.  Spans stay in memory as
``(name, start, end, parent, op)`` and are written out by ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = (
    "arith",
    "poly",
    "falling",
    "certificate",
    "matfun",
    "fuchs",
    "hyper",
    "constcoef",
    "catalog",
)

ARITH_METHODS = frozenset(
    {
        "__add__",
        "__sub__",
        "__neg__",
        "__mul__",
        "__matmul__",
        "__truediv__",
        "__pow__",
        "scale",
        "shift",
        "scale_poly",
        "derivative",
        "partial",
        "partial_multi",
        "inverse",
        "transpose",
        "divmod",
        "taylor_shift",
        "gcd",
        "monic",
        "evaluate",
        "apply",
        "truncate",
    }
)

#: busy time (outermost spans) and call counts of single functions or groups
BUSY_GROUPS = {
    "arith.g_k": ("arith.g_k",),
    "arith.bound": ("arith.lcm_upto", "arith.prime_power_product", "arith.tau_p"),
    "falling.delta_derivatives": ("falling.delta_derivatives",),
    "matfun.spectral": ("matfun.spectral",),
    "matfun.matrix_delta_table": ("matfun.matrix_delta_table",),
    "matfun.bracket_table": ("matfun.bracket_table",),
    "fuchs.simultaneous_eigenbasis": ("fuchs.simultaneous_eigenbasis",),
    "hyper.theorem6": ("hyper.theorem6",),
    "certificate.make_certificate": ("certificate.make_certificate",),
}

#: functions whose own-layer time is reported: time inside the function and
#: its same-layer callees, less the time in other layers
SELF_FUNCTIONS = (
    "fuchs.certify_system",
    "hyper.certify_lemma11",
    "constcoef.certify_constcoef",
)

#: classes whose arithmetic-method calls are counted
OP_CLASSES = ("matfun.MatQ", "fuchs.PolyMat", "poly.MultiPoly", "poly.UniPoly")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.active = True
        self.psi_bits = 0
        self.decisions = 0
        self.decisive = 0

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        on_result = {
            "certificate.make_certificate": self._on_certificate,
            "hyper.theorem6": self._on_theorem6,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent, self.op)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_certificate(self, cert) -> None:
        self.psi_bits += cert.psi_k.bit_length()

    def _on_theorem6(self, report) -> None:
        self.decisions += 1
        self.decisive += bool(report.decisive)

    def install(self) -> None:
        """Wrap every layer of the imported factcancel package in place."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"factcancel.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
                    setattr(mod, name, wrapped[obj])
                elif inspect.isclass(obj):
                    for meth in sorted(ARITH_METHODS & set(vars(obj))):
                        fn = vars(obj)[meth]
                        if inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(fn, f"{layer}.{name}.{meth}"))
        for modname, mod in list(sys.modules.items()):
            if modname == "factcancel" or modname.startswith("factcancel."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(mod, name, wrapped[obj])

    def metrics(self) -> dict:
        """Per-layer counts and times of the recorded spans."""
        spans = self.spans
        n = len(spans)
        layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        group_bit = {g: 1 << i for i, g in enumerate(BUSY_GROUPS)}
        name_groups: dict[str, int] = {}
        for g, names in BUSY_GROUPS.items():
            for name in names:
                name_groups[name] = name_groups.get(name, 0) | group_bit[g]
        self_bit = {f: 1 << i for i, f in enumerate(SELF_FUNCTIONS)}

        layers = [s[0].split(".", 1)[0] for s in spans]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        own = dict.fromkeys(LAYERS, 0.0)
        gbusy = dict.fromkeys(BUSY_GROUPS, 0.0)
        gcalls = dict.fromkeys(BUSY_GROUPS, 0)
        fself = dict.fromkeys(SELF_FUNCTIONS, 0.0)
        ops = dict.fromkeys(OP_CLASSES, 0)
        anc_layers = [0] * n  # layers of the ancestors, as bits
        anc_groups = [0] * n  # busy groups of the ancestors, as bits
        chain = [0] * n  # SELF_FUNCTIONS reached through same-layer parents
        for i, (name, _, _, parent, _) in enumerate(spans):
            layer = layers[i]
            groups = name_groups.get(name, 0)
            if parent >= 0:
                anc_layers[i] = anc_layers[parent] | layer_bit[layers[parent]]
                anc_groups[i] = anc_groups[parent] | name_groups.get(spans[parent][0], 0)
                if layers[parent] == layer:
                    chain[i] = chain[parent]
            chain[i] |= self_bit.get(name, 0)
            calls[layer] += 1
            own_time = dur[i] - child[i]
            own[layer] += own_time
            if not anc_layers[i] & layer_bit[layer]:
                busy[layer] += dur[i]
            for g, bit in group_bit.items():
                if groups & bit:
                    gcalls[g] += 1
                    if not anc_groups[i] & bit:
                        gbusy[g] += dur[i]
            if chain[i]:
                for f, bit in self_bit.items():
                    if chain[i] & bit:
                        fself[f] += own_time
            if "." in name[len(layer) + 1 :]:
                cls = name.rsplit(".", 1)[0]
                if cls in ops:
                    ops[cls] += 1

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = own[layer]
        out["arith.g_k.calls"] = gcalls["arith.g_k"]
        out["falling.delta_derivatives.calls"] = gcalls["falling.delta_derivatives"]
        out["hyper.theorem6.calls"] = self.decisions
        for g in BUSY_GROUPS:
            out[f"{g}.busy_s"] = gbusy[g]
        for f in SELF_FUNCTIONS:
            out[f"{f}.self_s"] = fself[f]
        for cls in OP_CLASSES:
            out[f"{cls}.ops"] = ops[cls]
        out["hyper.theorem6.decisive_frac"] = self.decisive / max(self.decisions, 1)
        out["certificate.psi_bits"] = self.psi_bits
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON: a name table and one
        [name, start, end, parent, op] row per span, times in seconds from
        the first span."""
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [names.setdefault(s[0], len(names)), s[1] - t0, s[2] - t0, s[3], s[4]]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
