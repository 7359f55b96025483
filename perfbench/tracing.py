"""Spans and counts for the traced benchmark run, recorded from outside
the package.

install() wraps the package's public entry points of each layer and
rebinds every wrapper wherever the package looks the name up: a module
that did `from .linalg import rref` holds its own reference, so each
module dictionary (and each class dictionary, for methods) is searched
for the original object.  Nothing under src/ changes.  A name the
package no longer defines is skipped, so its layer reads as zero.

A span is [name, start, end, parent index]; spans stay in memory and are
written out once the run ends.  Self time is a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# span name -> (module, attribute) of the function that opens it; a
# dotted attribute names a method on a class in that module
SPANNED = {
    "cli.main": [("cli", "main")],
    "catalog.load": [("catalog", "load")],
    "groups.generate": [("groups", "MatrixGroup.generate")],
    "groups.subgroups_two_generated": [
        ("groups", "MatrixGroup.subgroups_two_generated")],
    "invariants.invariant_basis": [("invariants", "invariant_basis")],
    "invariants.reynolds_operator": [("invariants", "reynolds_operator")],
    "linalg.rref": [("linalg", "rref")],
    "linalg.commutant_dimension": [("linalg", "commutant_dimension")],
    "smoothprobe.probe_nonempty": [("smoothprobe", "probe_nonempty")],
    "smoothprobe.singular_scan": [("smoothprobe", "singular_scan")],
    # the character route and dim Z_G
    "chars": [("chars", name) for name in (
        "character_of", "det_character", "dim_invariant_cubics",
        "dim_special_subvariety", "commutant_dimension_from_character")],
    "audit.check_criterion": [("audit", "check_criterion")],
    "audit.lattice_report": [("audit", "lattice_report")],
}

# count name -> (module, attribute); the rebinding also reaches the
# reflected aliases __rmul__ and __radd__, which are the same functions
COUNTED = {
    "cyclo.mul_calls": [("cyclo", "Cyclotomic.__mul__")],
    "cyclo.add_calls": [("cyclo", "Cyclotomic.__add__")],
}

MODULES = ("cyclo", "linalg", "chars", "groups", "invariants",
           "smoothprobe", "audit", "catalog", "cli")


def _record_generate(counts, group):
    counts["groups.closure_elements"] += group.order


def _record_scan(counts, result):
    counts["smoothprobe.points_scanned"] += result.points
    counts["smoothprobe.smooth_scans"] += bool(result.smooth)


ON_RESULT = {
    "groups.generate": _record_generate,
    "smoothprobe.singular_scan": _record_scan,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._open = []

    def span(self, name, fn, on_result=None):
        """fn wrapped so that each call records a span under name."""
        spans, stack, clock, counts = (self.spans, self._open, self.clock,
                                       self.counts)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }))


def _lookup(module, dotted):
    owner, _, attr = dotted.rpartition(".")
    holder = getattr(module, owner) if owner else module
    return holder, attr, vars(holder).get(attr)


def install(tracer):
    """Wrap every SPANNED and COUNTED entry point; returns an undo
    function that puts the originals back."""
    modules = [importlib.import_module(f"cubicmoduli.{m}") for m in MODULES]
    modules.append(importlib.import_module("cubicmoduli"))
    undo = []

    def rebind(holders, original, replacement):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, attr, value))
                    setattr(holder, attr, replacement)

    def wrap_all(table, make):
        for name, targets in table.items():
            for mod_name, dotted in targets:
                module = importlib.import_module(f"cubicmoduli.{mod_name}")
                holder, attr, raw = _lookup(module, dotted)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(name, raw.__func__))
                    rebind([holder], raw, wrapped)
                else:
                    rebind(modules if holder is module else [holder],
                           raw, make(name, raw))

    wrap_all(SPANNED, lambda n, fn: tracer.span(n, fn, ON_RESULT.get(n)))
    wrap_all(COUNTED, tracer.counter)

    def restore():
        for holder, attr, value in reversed(undo):
            setattr(holder, attr, value)

    return restore


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_self(spans, name, selfs=None):
    selfs = self_times(spans) if selfs is None else selfs
    return sum(s for sp, s in zip(spans, selfs) if sp[0] == name)


def layer_busy(spans, name):
    """Wall time inside at least one span called name: nested spans of
    the same name are not counted twice."""
    total = 0.0
    for sp in spans:
        if sp[0] != name:
            continue
        parent = sp[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            total += sp[2] - sp[1]
    return total


def layer_calls(spans, name):
    return sum(1 for sp in spans if sp[0] == name)


def per_layer_metrics(tracer):
    """The per-layer metrics listed in BENCHMARK.json, and the subgroup
    scan's busy time where it ran, as name -> (value, unit)."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    scans = layer_calls(spans, "smoothprobe.singular_scan")
    s, n = "s", "count"
    metrics = {
        "cyclo.mul_calls": (counts["cyclo.mul_calls"], n),
        "cyclo.add_calls": (counts["cyclo.add_calls"], n),
        "groups.generate_busy_s": (layer_busy(spans, "groups.generate"), s),
        "groups.generate_calls": (layer_calls(spans, "groups.generate"), n),
        "groups.closure_elements": (counts["groups.closure_elements"], n),
        "invariants.basis_self_s": (
            layer_self(spans, "invariants.invariant_basis", selfs), s),
        "invariants.reynolds_busy_s": (
            layer_busy(spans, "invariants.reynolds_operator"), s),
        "linalg.rref_busy_s": (layer_busy(spans, "linalg.rref"), s),
        "linalg.rref_calls": (layer_calls(spans, "linalg.rref"), n),
        "linalg.commutant_busy_s": (
            layer_busy(spans, "linalg.commutant_dimension"), s),
        "smoothprobe.probe_busy_s": (
            layer_busy(spans, "smoothprobe.probe_nonempty"), s),
        "smoothprobe.scan_busy_s": (
            layer_busy(spans, "smoothprobe.singular_scan"), s),
        "smoothprobe.scan_calls": (scans, n),
        "smoothprobe.points_scanned": (
            counts["smoothprobe.points_scanned"], n),
        "smoothprobe.certified_per_scan": (
            counts["smoothprobe.smooth_scans"] / scans if scans else 0.0,
            "ratio"),
        "chars.busy_s": (layer_busy(spans, "chars"), s),
        "catalog.load_self_s": (layer_self(spans, "catalog.load", selfs), s),
        "audit.check_self_s": (
            layer_self(spans, "audit.check_criterion", selfs), s),
        "cli.self_s": (layer_self(spans, "cli.main", selfs), s),
    }
    # only lattice reports scan subgroups; elsewhere the metric is left
    # out rather than reported as a constant zero
    if layer_calls(spans, "groups.subgroups_two_generated"):
        metrics["groups.subgroup_scan_busy_s"] = (
            layer_busy(spans, "groups.subgroups_two_generated"), s)
    return metrics


def layer_table(tracer):
    """Rows (name, calls, busy seconds, self seconds) for every span name,
    for the human-readable report."""
    spans = tracer.spans
    selfs = self_times(spans)
    names = sorted({sp[0] for sp in spans})
    return [(name, layer_calls(spans, name), layer_busy(spans, name),
             layer_self(spans, name, selfs)) for name in names]
