"""Spans around calls into eaqecc's layers, and the per-layer table.

While installed, the tracer rebinds each traced public function or
method, at every name an eaqecc module looks it up by, to a wrapper
that records a span: name, start, end, parent span and a few counts
read off the result.  Spans stay in memory; the caller writes them out
when the run ends.  A layer's time is its self time: the span's length
minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from contextlib import contextmanager

SCAN_FIELDS = (2, 3, 4, 9)
ISD_FIELDS = (2, 9)
RULE_SPANS = ("propagate.more_ent", "propagate.same_ent", "propagate.less_ent")

# name -> unit, in the order the run prints them
LAYER_METRICS = {
    "fields.build_s": "s",
    "matrix.rref_calls": "count",
    "matrix.rref_s": "s",
    "codes.hull_s": "s",
    "codes.min_distance_calls": "count",
    "codes.distance_cache_hits": "count",
    "distance.scan_words": "count",
    "distance.scan_s": "s",
    **{f"distance.scan_words_per_s.gf{q}": "1/s" for q in SCAN_FIELDS},
    "distance.isd_messages": "count",
    "distance.isd_rounds": "count",
    "distance.isd_s": "s",
    **{f"distance.isd_messages_per_s.gf{q}": "1/s" for q in ISD_FIELDS},
    "distance.isd_inexact": "count",
    "construct.hermitian_s": "s",
    "construct.css_s": "s",
    "propagate.rule_s": "s",
    "propagate.candidates_scored": "count",
    "propagate.min_ent_s": "s",
    "propagate.simple_rule_calls": "count",
    "tables.expand_s": "s",
    "tables.compress_s": "s",
    "tables.query_s": "s",
    "tables.cells": "count",
    "tables.cells_per_s": "1/s",
    "bounds.check_s": "s",
    "cli.verify_paper_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
COUNT_METRICS = tuple(k for k, u in LAYER_METRICS.items() if u == "count")


def _scan_info(args, kwargs, result):
    return {"q": args[0].order, "words": result.classes_scanned}


def _isd_info(signature, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    facts = [result.fact] + ([result.outside_fact] if result.outside_fact is not None else [])
    open_bound = any(not f.exact for f in facts)
    target_met = a["target"] is not None and result.fact.value >= a["target"]
    return {
        "q": a["field"].order,
        "work": result.work,
        "rounds": sum(result.rounds),
        "inexact": int(open_bound and not target_met and result.work <= a["work_budget"]),
    }


def _min_distance_info(args, kwargs, result):
    return {"k": args[0].k}


def _expand_info(args, kwargs, result):
    return {"cells": len(result.cells)}


class Tracer:
    """Records spans while installed; a no-op otherwise."""

    def __init__(self, ex):
        self.ex = ex
        self.spans = []   # [name, start, end, parent index, info]
        self.stack = []
        self.counts = {}
        self.installed = False
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own call into a layer."""
        if not self.installed:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, info):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if info is not None:
                rec[4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------------

    def _rebind(self, fn, wrapper):
        """Point every eaqecc module global bound to fn at the wrapper."""
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if name != "eaqecc" and not name.startswith("eaqecc."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _patch_method(self, cls, attr, name, info=None):
        fn = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(fn, name, info))
        self._undo.append((cls, attr, fn))

    def install(self):
        ex = self.ex
        self.spans, self.stack, self.counts = [], [], {}
        isd = ex.distance.information_set_bounds
        functions = [
            (ex.distance.span_weight_scan, "distance.scan", _scan_info),
            (isd, "distance.isd", functools.partial(_isd_info, inspect.signature(isd))),
            (ex.construct.hermitian_construct, "construct.hermitian", None),
            (ex.construct.css_construct, "construct.css", None),
            (ex.propagate.more_entanglement_step, "propagate.more_ent", None),
            (ex.propagate.same_entanglement_step, "propagate.same_ent", None),
            (ex.propagate.less_entanglement_step, "propagate.less_ent", None),
            (ex.propagate.min_entanglement_search, "propagate.min_ent", None),
            (ex.bounds.check_all, "bounds.check", None),
            (ex.tables.expand, "tables.expand", _expand_info),
            (ex.tables.compress, "tables.compress", None),
            (ex.tables.query, "tables.query", None),
        ]
        for fn, name, info in functions:
            self._rebind(fn, self._wrap(fn, name, info))
        # called ~10^6 times per table round: a counter, not a span
        fn = ex.propagate.simple_rule_transform
        self._rebind(fn, self._count(fn, "propagate.simple_rule"))
        self._patch_method(ex.MatrixFq, "rref", "matrix.rref")
        for attr in ("hermitian_dual", "euclidean_dual", "hermitian_hull"):
            self._patch_method(ex.LinearCode, attr, "codes.hull")
        self._patch_method(ex.LinearCode, "min_distance", "codes.min_distance", _min_distance_info)
        self.installed = True

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo = []
        self.installed = False

    # -- the per-layer table --------------------------------------------------

    def layer_values(self):
        """Per-layer counts and self times for the spans recorded since install."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = [[] for _ in spans]
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(i)
        self_time, calls = {}, {}
        for i, (name, start, end, _, _) in enumerate(spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
            calls[name] = calls.get(name, 0) + 1

        def total(name):
            return sum(end - start for (n, start, end, _, _) in spans if n == name)

        scan_words = {q: 0 for q in SCAN_FIELDS}
        scan_time = {q: 0.0 for q in SCAN_FIELDS}
        isd_work = {q: 0 for q in ISD_FIELDS}
        isd_time = {q: 0.0 for q in ISD_FIELDS}
        v = {"distance.isd_rounds": 0, "distance.isd_inexact": 0, "tables.cells": 0,
             "codes.distance_cache_hits": 0, "propagate.candidates_scored": 0}
        for i, (name, start, end, _, info) in enumerate(spans):
            own = end - start - child_time[i]
            if name == "distance.scan":
                scan_words[info["q"]] = scan_words.get(info["q"], 0) + info["words"]
                scan_time[info["q"]] = scan_time.get(info["q"], 0.0) + own
            elif name == "distance.isd":
                isd_work[info["q"]] = isd_work.get(info["q"], 0) + info["work"]
                isd_time[info["q"]] = isd_time.get(info["q"], 0.0) + own
                v["distance.isd_rounds"] += info["rounds"]
                v["distance.isd_inexact"] += info["inexact"]
            elif name == "tables.expand":
                v["tables.cells"] += info["cells"]
            elif name == "codes.min_distance":
                engines = [spans[j][0] for j in children[i]]
                if info["k"] > 0 and not {"distance.scan", "distance.isd"} & set(engines):
                    v["codes.distance_cache_hits"] += 1
            elif name == "propagate.less_ent":
                # the word scan asks min_distance once for d(E), then once per
                # candidate word; hermitian_construct's calls sit one level lower
                asked = sum(1 for j in children[i] if spans[j][0] == "codes.min_distance")
                v["propagate.candidates_scored"] += max(0, asked - 1)

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        v.update({
            "matrix.rref_calls": calls.get("matrix.rref", 0),
            "matrix.rref_s": self_time.get("matrix.rref", 0.0),
            "codes.hull_s": self_time.get("codes.hull", 0.0),
            "codes.min_distance_calls": calls.get("codes.min_distance", 0),
            "distance.scan_words": sum(scan_words.values()),
            "distance.scan_s": self_time.get("distance.scan", 0.0),
            "distance.isd_messages": sum(isd_work.values()),
            "distance.isd_s": self_time.get("distance.isd", 0.0),
            "construct.hermitian_s": self_time.get("construct.hermitian", 0.0),
            "construct.css_s": self_time.get("construct.css", 0.0),
            "propagate.rule_s": sum(self_time.get(n, 0.0) for n in RULE_SPANS),
            "propagate.min_ent_s": self_time.get("propagate.min_ent", 0.0),
            "propagate.simple_rule_calls": self.counts.get("propagate.simple_rule", 0),
            "tables.expand_s": self_time.get("tables.expand", 0.0),
            "tables.compress_s": self_time.get("tables.compress", 0.0),
            "tables.query_s": self_time.get("tables.query", 0.0),
            "bounds.check_s": self_time.get("bounds.check", 0.0),
            "cli.verify_paper_s": self_time.get("cli.verify_paper", 0.0),
        })
        for q in SCAN_FIELDS:
            v[f"distance.scan_words_per_s.gf{q}"] = rate(scan_words[q], scan_time[q])
        for q in ISD_FIELDS:
            v[f"distance.isd_messages_per_s.gf{q}"] = rate(isd_work[q], isd_time[q])
        v["tables.cells_per_s"] = rate(v["tables.cells"], total("tables.expand"))
        return v


def combine_rounds(per_round, fields_build_s, traced_walls, untraced_walls):
    """One per-layer table from the traced rounds of a run.

    Counts must repeat exactly from round to round (the same operations
    on fresh objects); they are reported once.  Times and rates are the
    mean over the traced rounds.
    """
    out = {}
    for name in LAYER_METRICS:
        vals = [r[name] for r in per_round if name in r]
        if not vals:
            continue
        out[name] = vals[0] if name in COUNT_METRICS else math.fsum(vals) / len(vals)
    unsteady = [n for n in COUNT_METRICS if n in out and any(r[n] != out[n] for r in per_round)]
    out["fields.build_s"] = fields_build_s
    traced = sorted(traced_walls)[len(traced_walls) // 2]
    untraced = sorted(untraced_walls)[len(untraced_walls) // 2]
    out["trace.wall_s"] = traced
    out["trace.overhead_s"] = traced - untraced
    return out, unsteady


def write_spans(path, spans):
    """The recorded spans as CSV: name, start and end in microseconds, parent."""
    if not spans:
        return
    t0 = spans[0][1]
    with open(path, "w") as fh:
        fh.write("index,name,start_us,end_us,parent\n")
        for i, (name, start, end, parent, _) in enumerate(spans):
            fh.write(f"{i},{name},{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f},{parent}\n")
