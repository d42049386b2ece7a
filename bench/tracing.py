"""Spans around calls into the layers of scatstair, recorded from outside.

The tracer replaces each public function of the six modules at every module
attribute that names it (the defining module and each importer, such as
``cli.ks_complete`` or ``curves.fib``), plus the ring operations on
``TruncatedSeries``, with a wrapper that records a span: name, start, end and
the enclosing span.  Spans live in flat arrays while the traced pass runs and
are written out afterwards; self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List

LAYERS = ("series", "scattering", "curves", "staircase", "toric", "cli")

# Not wrapped.  Per-term arithmetic helpers run inside every product and
# comparison, so spans there would multiply the tracing overhead without
# naming a layer boundary.  Parsing and rendering helpers stay untraced so
# that their time counts in ``cli.main``'s self time, which is defined as
# parsing plus rendering.
UNTRACED = {
    "series.wedge", "series.rot90", "series.is_primitive", "series.primitive_part",
    "series.canonical_term_order",
    "scattering.direction_cmp", "scattering.diagram_to_json", "scattering.diagram_from_json",
    "scattering.diagram_to_svg", "scattering.diagram_json_text",
    "staircase.samples_to_csv", "staircase.samples_to_json", "staircase.staircase_svg",
    "toric.mat_apply", "toric.mat_det", "toric.parse_model", "toric.format_model",
    "toric.orbit_to_json", "toric.orbit_to_dot", "toric.orbit_json_text",
}

# Ring operations of TruncatedSeries, by class attribute; reflected operators
# share the name of the operation.
SERIES_METHODS = {
    "__add__": "series.add", "__radd__": "series.add", "__sub__": "series.sub",
    "__mul__": "series.mul", "__rmul__": "series.mul", "__pow__": "series.pow",
    "inverse": "series.inverse", "log": "series.log", "exp": "series.exp",
    "truncate": "series.truncate",
}


def _mul_counts(counts: Counter, args, result) -> None:
    a, b = args
    pairs = len(a.terms) * len(b.terms) if hasattr(b, "terms") else len(a.terms)
    counts["series.mul.term_pairs"] += pairs
    counts["series.mul.kept_terms"] += len(result.terms)


def _defect_counts(counts: Counter, args, result) -> None:
    counts["scattering.defect_at_order.nonempty"] += bool(result)


def _complete_counts(counts: Counter, args, result) -> None:
    counts["scattering.walls_out"] += len(result.walls)
    counts["scattering.terms_out"] += result.total_terms()


def _cross_check_counts(counts: Counter, args, result) -> None:
    counts["curves.rows"] += len(result.rows)


# Names whose inclusive time is reported as <name>.total_s.
INCLUSIVE = ("scattering.ks_complete", "scattering.defect_at_order")

# Counts taken at the boundary from a call's arguments and result.
HOOKS: Dict[str, Callable] = {
    "series.mul": _mul_counts,
    "scattering.defect_at_order": _defect_counts,
    "scattering.ks_complete": _complete_counts,
    "curves.scattering_cross_check": _cross_check_counts,
}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._saved = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one per task."""
        idx = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        calls, counts, hook = self.calls, self.counts, HOOKS.get(name)
        open_, close = self.open, self.close

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so a consumer's work between items is
            # not charged to the generator.
            yielded = f"{name}.yielded"

            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(idx)
                    counts[yielded] += 1
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            calls[name] += 1
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    # -- installing ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = {short: importlib.import_module(f"scatstair.{short}") for short in LAYERS}
        targets = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in UNTRACED
                    and (short != "cli" or attr == "main")
                ):
                    targets[obj] = name
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        owners = list(modules.values()) + [importlib.import_module("scatstair")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])
        cls = modules["series"].TruncatedSeries
        method_wrappers = {}
        for attr, name in SERIES_METHODS.items():
            fn = vars(cls)[attr]
            if fn not in method_wrappers:
                method_wrappers[fn] = self.wrap(name, fn)
            self._saved.append((cls, attr, fn))
            setattr(cls, attr, method_wrappers[fn])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header with the names, then one
        ``[name_id, start, end, parent]`` row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.name)):
                fh.write(f"[{self.name[i]},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}]\n")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(start, end, parent) -> List[float]:
    """Per span: duration minus the union of its children's intervals.

    Spans are listed in order of start, so the children of a span arrive in
    order of start and their union can be merged in one sweep.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p], start[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if end[i] > reach[p]:
            reach[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(tracer: Tracer) -> Dict[str, float]:
    """Per-name call counts and self time, the boundary counts, the inclusive
    time of the names in INCLUSIVE, and the time total_monodromy spends in
    ks_complete's final full-order check."""
    names, name, start, end, parent = tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent
    out: Dict[str, float] = {f"{nm}.calls": c for nm, c in tracer.calls.items()}
    out.update(tracer.counts)
    for i, t in enumerate(self_times(start, end, parent)):
        key = f"{names[name[i]]}.self_s"
        out[key] = out.get(key, 0.0) + t
    ids = {nm: names.index(nm) for nm in INCLUSIVE + ("scattering.total_monodromy",) if nm in names}
    complete, monodromy = ids.get("scattering.ks_complete"), ids.get("scattering.total_monodromy")
    for i in range(len(name)):
        if name[i] == monodromy and parent[i] >= 0 and name[parent[i]] == complete:
            key = "scattering.total_monodromy.final_s"
            out[key] = out.get(key, 0.0) + end[i] - start[i]
    for nm in INCLUSIVE:
        if nm in ids:  # neither name recurses, so their spans never nest
            out[f"{nm}.total_s"] = sum(end[i] - start[i] for i in range(len(name)) if name[i] == ids[nm])
    out["trace.spans"] = len(name)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Dict[str, float], spec: List[dict]) -> Dict[str, float]:
    """The per-layer metrics named in ``spec`` (BENCHMARK.json's per_layer)."""
    s = summary
    derived = {
        "series.mul.kept_ratio": ratio(s.get("series.mul.kept_terms", 0), s.get("series.mul.term_pairs", 0)),
        "scattering.defect_at_order.nonempty_ratio": ratio(
            s.get("scattering.defect_at_order.nonempty", 0), s.get("scattering.defect_at_order.calls", 0)
        ),
        "scattering.defect_at_order.share": ratio(
            s.get("scattering.defect_at_order.total_s", 0.0), s.get("scattering.ks_complete.total_s", 0.0)
        ),
        "staircase.classes_found": s.get("staircase.enumerate_exceptional_classes.yielded", 0),
        "staircase.cremona_yield": ratio(
            s.get("staircase.enumerate_exceptional_classes.yielded", 0), s.get("staircase.cremona_reduces.calls", 0)
        ),
    }
    return {m["name"]: derived.get(m["name"], s.get(m["name"], 0)) for m in spec}
