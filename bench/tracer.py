"""Tracing from outside: wrappers around seqring's public functions.

``Tracer.install`` replaces each layer's public functions, and the public
methods of ``ExpPoly``/``Quantity`` that matter, with wrappers that open a
span.  A span has a name, a start, an end, a parent and the identifier of
the benchmark operation it belongs to.  Names bound by ``from .x import y``
are rebound too (``seqring.cli.compare``, ``seqring.order.eval_at``, ...),
so calls between layers are seen.  ``uninstall`` puts the originals back.

Self time is a span's duration minus the time covered by its child spans.
Per-name totals are kept on the fly; full span records are kept only for
names outside ``HOT``, whose calls run into the millions (``eval_at``).

``ExpPoly.value_at`` is deliberately left unwrapped: its time belongs to its
caller, so ``eval_at`` includes the body evaluation it delegates, and
``patch``/``delay`` include their minimality checks.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import seqring
import seqring.calculus as calculus
import seqring.cli as cli
import seqring.order as order
import seqring.quantity as quantity
import seqring.series as series

MODULES = (seqring, quantity, order, series, calculus, cli)

LAZY, EXACT = "order.lazy", "order.exact"

# Module functions: metric group, or None for an order function whose group
# depends on whether its arguments are closed forms.
FUNCTIONS = {
    quantity: {
        "add": "quantity.ring",
        "sub": "quantity.ring",
        "neg": "quantity.ring",
        "mul": "quantity.ring",
        "pow_int": "quantity.ring",
        "delay": "quantity.delay",
        "patch": "quantity.patch",
        "eval_at": "quantity.eval_at",
        "embed_scalar": "quantity.other",
        "canonicalize": "quantity.other",
    },
    order: {
        "compare_lazy": LAZY,
        "classify_lazy": LAZY,
        "compare": None,
        "classify": None,
        "infinitely_greater": None,
        "proportionality_constant": None,
        "eventual_sign": None,
        "is_infinitely_small": None,
        "is_infinitely_great": None,
        "infinitely_close": None,
    },
    series: {
        "partial_sums": "series.sums",
        "omit_first": "series.sums",
        "geometric_series_sums": "series.sums",
        "faulhaber_sum": "series.faulhaber",
        "geometric_power_sum": "series.geometric",
    },
    calculus: {
        "derivative": "calculus.probe",
        "continuity_probe": "calculus.probe",
        "uniform_continuity_probe": "calculus.probe",
        "standard_part": "calculus.standard_part",
        "extend": "calculus.other",
        "default_probes": "calculus.other",
        "unit_infinitesimal": "calculus.other",
    },
    cli: {
        "parse": "cli.parse",
        "execute": "cli.execute",
        "format_json": "cli.format",
        "format_text": "cli.format",
    },
}

METHODS = {
    (quantity.ExpPoly, "__add__"): "quantity.expoly.arith",
    (quantity.ExpPoly, "__sub__"): "quantity.expoly.arith",
    (quantity.ExpPoly, "__neg__"): "quantity.expoly.arith",
    (quantity.ExpPoly, "__mul__"): "quantity.expoly.arith",
    (quantity.ExpPoly, "scale"): "quantity.expoly.arith",
    (quantity.ExpPoly, "render"): "quantity.render",
    (quantity.Quantity, "render"): "quantity.render",
    (quantity.Quantity, "as_lazy"): "quantity.other",
}

# Counted, not timed: their time stays with the caller.
COUNTED = {
    (quantity.ExpPoly, "__init__"): "quantity.expoly.new",
    (calculus.RealFunction, "at"): "calculus.fn_evals",
}

HOT = {"quantity.eval_at", "quantity.expoly.arith", "quantity.ring"}


def _order_group(args) -> str:
    lazy = any(isinstance(a, quantity.Quantity) and not a.is_closed for a in args)
    return LAZY if lazy else EXACT


def _decided(result) -> bool:
    if isinstance(result, order.Verdict):
        return result.status != "unknown"
    return result is not None  # classify_lazy: None means the tail was inconclusive


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child_time, layer, span_id]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.op_id = 0
        self._next_span = 0
        self._lazy_depth = 0
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------

    def operation(self, op_id: int, fn):
        """Run one benchmark operation as the root span ``op``."""
        self.op_id = op_id
        return self._wrap(fn, "op", record=True)()

    def _wrap(self, fn, group, record: bool):
        tracer = self
        stack = self.stack

        static_layer = None if group is None else group.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            if group is None:
                name, layer = _order_group(args), "order"
            else:
                name, layer = group, static_layer
            outer_lazy = name == LAZY and tracer._lazy_depth == 0
            if name == LAZY:
                tracer._lazy_depth += 1
            elif name == "quantity.eval_at" and tracer._lazy_depth:
                tracer.counts["order.lazy.indices"] += 1
            parent = stack[-1] if stack else None
            span_id = tracer._next_span
            tracer._next_span += 1
            frame = [0.0, layer, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if name == LAZY:
                    tracer._lazy_depth -= 1
                if record:
                    tracer.spans.append(
                        (tracer.op_id, span_id, None if parent is None else parent[2], name, start, end)
                    )
            if outer_lazy:
                tracer.counts["order.lazy.verdicts"] += 1
                tracer.counts["order.lazy.decided"] += _decided(result)
            elif name == "calculus.probe" and isinstance(result, order.Verdict):
                tracer.counts["calculus.verdicts"] += 1
                tracer.counts["calculus.decided"] += _decided(result)
            elif layer == "quantity" and isinstance(result, quantity.Quantity) and (parent is None or parent[1] != layer):
                tracer.counts["quantity.patch_entries"] += len(result.patch)
            return result

        return wrapper

    def _count(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------

    def install(self) -> None:
        for module, table in FUNCTIONS.items():
            for fname, group in table.items():
                original = getattr(module, fname)
                record = group not in HOT
                self._rebind(original, self._wrap(original, group, record))
        for (cls, attr), group in METHODS.items():
            self._set(cls, attr, self._wrap(vars(cls)[attr], group, group not in HOT))
        for (cls, attr), counter in COUNTED.items():
            self._set(cls, attr, self._count(vars(cls)[attr], counter))

    def _rebind(self, original, wrapper) -> None:
        # The defining module and every `from .x import y` binding of it.
        for module in MODULES:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------

    def write_spans(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for op_id, span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps({"op": op_id, "span": span_id, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )

    def metrics(self, extra: dict) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``; ``extra`` adds the benchmark-side ones."""
        c, s, n = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "cli.parse.calls": (c["cli.parse"], "count"),
            "cli.parse.self_s": (s["cli.parse"], "s"),
            "cli.execute.self_s": (s["cli.execute"], "s"),
            "cli.format.self_s": (s["cli.format"], "s"),
            "quantity.ring.calls": (c["quantity.ring"], "count"),
            "quantity.ring.self_s": (s["quantity.ring"], "s"),
            "quantity.expoly.new": (n["quantity.expoly.new"], "count"),
            "quantity.expoly.arith_calls": (c["quantity.expoly.arith"], "count"),
            "quantity.expoly.arith_self_s": (s["quantity.expoly.arith"], "s"),
            "quantity.delay.self_s": (s["quantity.delay"], "s"),
            "quantity.patch.self_s": (s["quantity.patch"], "s"),
            "quantity.patch_entries": (n["quantity.patch_entries"], "count"),
            "quantity.render.self_s": (s["quantity.render"], "s"),
            "quantity.eval_at.calls": (c["quantity.eval_at"], "count"),
            "quantity.eval_at.self_s": (s["quantity.eval_at"], "s"),
            "order.exact.calls": (c[EXACT], "count"),
            "order.exact.self_s": (s[EXACT], "s"),
            "order.lazy.calls": (c[LAZY], "count"),
            "order.lazy.self_s": (s[LAZY], "s"),
            "order.lazy.indices": (n["order.lazy.indices"], "count"),
            "order.lazy.decided_ratio": (ratio(n["order.lazy.decided"], n["order.lazy.verdicts"]), "ratio"),
            "series.sums.calls": (c["series.sums"], "count"),
            "series.sums.self_s": (s["series.sums"], "s"),
            "series.faulhaber.self_s": (s["series.faulhaber"], "s"),
            "series.geometric.self_s": (s["series.geometric"], "s"),
            "calculus.probe.calls": (c["calculus.probe"], "count"),
            "calculus.probe.self_s": (s["calculus.probe"], "s"),
            "calculus.standard_part.self_s": (s["calculus.standard_part"], "s"),
            "calculus.fn_evals": (n["calculus.fn_evals"], "count"),
            "calculus.decided_ratio": (ratio(n["calculus.decided"], n["calculus.verdicts"]), "ratio"),
        }
        for layer in ("cli", "quantity", "order", "series", "calculus"):
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        out.update(extra)
        return out
