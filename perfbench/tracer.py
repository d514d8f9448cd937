"""Spans recorded around calls into reecurve, installed from outside.

The tracer replaces public functions and methods of the package with
wrappers that record one span per call: name, parent span, start and
end.  A function re-bound elsewhere by ``from .x import y`` is replaced
in every reecurve module that holds it, so calls through any name are
seen.  Spans stay in memory, in flat arrays, and ``dump`` writes them out
once the traced process is done.  ``aggregate`` turns a dump into per-name
call counts, inclusive time and self time.

Nothing here is imported by the package; the package stays unchanged.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# (span name, module, attribute path); several attributes may share a name
SPAN_TARGETS = (
    ("gf.solve_artin_schreier", "reecurve.gf", "solve_artin_schreier"),
    ("gf.frobenius_power", "reecurve.gf", "frobenius_power"),
    ("gf.mul", "reecurve.gf", "FieldElement.__mul__"),
    ("gf.inverse", "reecurve.gf", "FieldContext.inv"),
    ("gf.field_context", "reecurve.gf", "field_context"),
    ("series.random_point", "reecurve.series", "random_point"),
    ("series.expansion", "reecurve.series", "PointExpansion.series"),
    ("series.ser_mul", "reecurve.series", "ser_mul"),
    ("ring.mul", "reecurve.ring", "CurveElement.__mul__"),
    ("ring.reduce", "reecurve.ring", "CoordinateRing.reduce"),
    ("hasse.table", "reecurve.hasse", "HasseCalculus.table"),
    ("hasse.table", "reecurve.hasse", "HasseCalculus.shift_table"),
    ("params.index_value", "reecurve.params", "index_value"),
    ("identities.collision_reason", "reecurve.identities", "collision_reason"),
    ("identities.verify_catalog", "reecurve.identities", "verify_catalog"),
    ("orders.order_sequence", "reecurve.orders", "order_sequence"),
    ("orders.frobenius_orders", "reecurve.orders", "frobenius_orders"),
    ("weierstrass.vanishing_orders", "reecurve.weierstrass", "vanishing_orders"),
    ("cli.main", "reecurve.cli", "main"),
)

# extension degree from which random_point samples by rejection
SAMPLED_EXTENSION = 6


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._sampling = 0

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """Wrapper around fn that records a span per call.

        after(result) runs once the span is closed, for counters that
        need the call's result.
        """
        nid = self._name_id(name)
        stack, parent, names, start, end = (
            self._stack, self.parent, self.name, self.start, self.end
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- installation

    def install(self) -> None:
        """Patch every target in every loaded reecurve module."""
        import reecurve.cli  # noqa: F401  (loads every module with a target)

        after = {
            "series.expansion": self._expansion_after,
            "identities.verify_catalog": self._catalog_after,
        }
        for name, modname, attr in SPAN_TARGETS:
            owner = sys.modules[modname]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, path[-1])
            wrapped = self.wrap(name, orig, after=after.get(name))
            if name == "series.random_point":
                wrapped = self._flag_sampling(wrapped)
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
            else:
                _rebind(orig, wrapped)
        ctx_cls = sys.modules["reecurve.gf"].FieldContext
        ctx_cls.from_code = self._count_draws(ctx_cls.from_code)

    def _flag_sampling(self, traced):
        """Mark draws made inside a rejection-sampled random_point."""

        def random_point(s, seed, extension=1):
            sampled = extension >= SAMPLED_EXTENSION
            self._sampling += sampled
            try:
                point = traced(s, seed, extension)
            finally:
                self._sampling -= sampled
            if sampled:
                self.counters["series.sampler.points"] += 1
            return point

        return random_point

    def _count_draws(self, from_code):
        counters = self.counters

        def counted(ctx, code):
            if self._sampling:
                counters["series.sampler.attempts"] += 1
            return from_code(ctx, code)

        return counted

    def _expansion_after(self, result) -> None:
        self.counters["series.expansion.terms"] += len(result)

    def _catalog_after(self, result) -> None:
        self.counters["identities.instances"] += len(result)
        self.counters["identities.skipped"] += sum(1 for r in result if r.skipped)

    # -- output

    def dump(self, path: str, extra: dict) -> None:
        """Write the header as JSON and the span arrays next to it."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counters": dict(self.counters),
            **extra,
        }
        with open(path + ".spans", "wb") as fh:
            for arr in (self.parent, self.name, self.start, self.end):
                arr.tofile(fh)
        with open(path + ".json", "w") as fh:
            json.dump(header, fh)


def _rebind(orig, wrapped) -> None:
    """Replace orig under every name a reecurve module binds it to."""
    for modname, mod in list(sys.modules.items()):
        if modname != "reecurve" and not modname.startswith("reecurve."):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def load(path: str) -> tuple[dict, list[array]]:
    with open(path + ".json") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = []
    with open(path + ".spans", "rb") as fh:
        for code in ("q", "q", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


def aggregate(header: dict, arrays: list[array]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span minus its direct children.  Inclusive time sums
    whole spans, so it double counts a name that recurses into itself.
    """
    parent, name, start, end = arrays
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    names = header["names"]
    out = {nm: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for nm in names}
    for i in range(n):
        row = out[names[name[i]]]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["incl_s"] += dur
        row["self_s"] += dur - child[i]
    return out
