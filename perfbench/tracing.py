"""Span tracing of the package from the outside, for the per-layer metrics.

`install` wraps every public function of every `uniformity_lab` module in
each namespace that holds it (so `verification.count_solutions` is wrapped as
well as `counting.count_solutions`), the `GroupDomain.digits`, `add_table`
and `neg_table` accessors, and `check_budget`, whose `op_count` and `what`
are captured.  A wrapper costs one flag test while tracing is off.

Spans are kept in memory and written out at the end.  A span's self time is
its duration minus the time covered by its child spans.  Each span is
charged to a bucket: its own group when it has one (`GROUPS`), else its
caller's bucket when the caller is in the same module, else its module (the
layer).  So a same-module helper counts toward the operation that called it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

LAYERS = ("domains", "functions", "counting", "verification", "systems",
          "algebra", "hypergraphs", "budget", "cli", "reports")

# Layers whose operations declare a budget estimate, so ops/s is defined.
OPS_LAYERS = ("functions", "counting", "verification", "hypergraphs")

GROUPS = {
    ("functions", "uk_norm"): "functions.uk_norm",
    ("functions", "fourier"): "functions.fourier",
    ("functions", "u2_norm_fast"): "functions.u2_norm_fast",
    ("functions", "load_function"): "functions.load_function",
    ("counting", "average_product_direct"): "counting.direct",
    ("counting", "count_solutions"): "counting.direct",
    ("counting", "solution_probability"): "counting.direct",
    ("counting", "average_product_dual"): "counting.dual",
    ("verification", "gauss_sum_report"): "verification.gauss",
    ("verification", "verify_badex"): "verification.badex",
    ("verification", "verify_gvn"): "verification.gvn",
    ("verification", "atom_distribution"): "verification.atoms",
    ("verification", "verify_quadfactor"): "verification.quadfactor",
    ("verification", "verify_completefactor"): "verification.completefactor",
    ("verification", "verify_projection_lemmas"): "verification.projections",
    ("verification", "verify_bound1"): "verification.bound1",
    ("verification", "verify_pythagoras"): "verification.pythagoras",
    ("systems", "cs_complexity"): "systems.cs_complexity",
    ("systems", "power_independence"): "systems.power_independence",
    ("hypergraphs", "lift"): "hypergraphs.lift",
    ("hypergraphs", "octahedral_norm"): "hypergraphs.octahedral_norm",
    ("reports", "dump_report"): "reports.dump_report",
}

DOMAIN_ACCESSORS = ("digits", "add_table", "neg_table")

# Every per-layer metric pass_metrics can report (absent ones read 0).
METRIC_NAMES = frozenset(
    [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls", "errors")]
    + [f"{group}.{kind}" for group in set(GROUPS.values())
       for kind in ("self_s", "calls", "ops_est")]
    + [f"{layer}.ops_per_s" for layer in OPS_LAYERS]
    + [f"budget.ops_est.{layer}" for layer in OPS_LAYERS]
    + ["budget.ops_est", "budget.refusals", "domains.table_bytes",
       "systems.in_span_calls", "counting.direct.assignments",
       "counting.dual.tuples", "verification.assignments", "trace.spans",
       "trace.overhead"])

# Layer metrics left out: ops/s needs a budget estimate, which these lack.
DROPPED = tuple(f"{layer}.ops_per_s (no budget estimate)"
                for layer in LAYERS if layer not in OPS_LAYERS)


def is_exact_count(name: str) -> bool:
    """Counts must repeat exactly for one seed and source; times need not."""
    return not name.endswith(("self_s", "ops_per_s", "overhead"))


class _Frame:
    __slots__ = ("index", "layer", "bucket", "start", "child", "m")

    def __init__(self, index, layer, bucket, start, m):
        self.index = index
        self.layer = layer
        self.bucket = bucket
        self.start = start
        self.child = 0.0
        self.m = m


class Tracer:
    """Records spans while `enabled`; single-threaded (jobs run with threads=1)."""

    def __init__(self):
        self.enabled = False
        self.job = ""
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._errors_seen: list[BaseException] = []
        self._tables_seen: dict[int, object] = {}  # held, so ids stay unique

    def start_job(self, job: str) -> None:
        self.job = job
        self._tables_seen.clear()
        self._errors_seen.clear()

    def enter(self, name: str, layer: str, args) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        bucket = GROUPS.get((layer, name))
        if bucket is None:
            bucket = parent.bucket if parent is not None and parent.layer == layer else layer
        m = getattr(args[0], "m", None) if args and hasattr(args[0], "coeffs") else None
        frame = _Frame(len(self.spans), layer, bucket, time.perf_counter(), m)
        self.spans.append({"job": self.job, "name": f"{layer}.{name}",
                           "bucket": bucket,
                           "parent": parent.index if parent is not None else None})
        self._stack.append(frame)
        self.counts[f"{layer}.calls"] += 1
        if bucket != layer:
            self.counts[f"{bucket}.calls"] += 1
        return frame

    def exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        span = self.spans[frame.index]
        span["start"] = frame.start
        span["dur"] = dur
        span["self"] = dur - frame.child
        if self._stack:
            self._stack[-1].child += dur

    def error(self, exc: BaseException, layer: str) -> None:
        """Count an exception once, in the layer it first leaves."""
        if not any(seen is exc for seen in self._errors_seen):
            self._errors_seen.append(exc)
            self.counts[f"{layer}.errors"] += 1

    def budget(self, op_count: int, what: str) -> None:
        """Charge a budget estimate to the caller of check_budget."""
        caller = self._stack[-2] if len(self._stack) > 1 else None
        self.spans[self._stack[-1].index].update(op_count=op_count, what=what)
        self.counts["budget.ops_est"] += op_count
        if caller is None:
            return
        self.counts[f"budget.ops_est.{caller.layer}"] += op_count
        self.counts[f"{caller.bucket}.ops_est"] += op_count
        if caller.m:
            # direct and dual estimates are m times the assignments/tuples
            if caller.bucket == "counting.direct":
                self.counts["counting.direct.assignments"] += op_count // caller.m
            elif caller.bucket == "counting.dual":
                self.counts["counting.dual.tuples"] += op_count // caller.m
            elif caller.layer == "verification":
                self.counts["verification.assignments"] += op_count // caller.m

    def table(self, array) -> None:
        if id(array) not in self._tables_seen:
            self._tables_seen[id(array)] = array
            self.counts["domains.table_bytes"] += int(array.nbytes)

    def take(self) -> tuple[list[dict], Counter]:
        """Spans and counts recorded since the last call."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def _wrap(tracer: Tracer, fn, name: str, layer: str, namespace: str,
          on_result=None):
    is_budget = (layer, name) == ("budget", "check_budget")
    # calls from another module's namespace, e.g. systems->in_span
    via = f"{namespace}->{name}" if namespace != layer else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = tracer.enter(name, layer, args)
        if via:
            tracer.counts[via] += 1
        try:
            if is_budget:
                tracer.budget(int(args[0] if args else kwargs["op_count"]),
                              kwargs.get("what", args[2] if len(args) > 2 else ""))
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.error(exc, layer)
            if is_budget:
                tracer.counts["budget.refusals"] += 1
            raise
        finally:
            tracer.exit(frame)
        if on_result is not None:
            on_result(out)
        return out

    traced.__perfbench_wrapped__ = True
    return traced


def install(tracer: Tracer, package: str = "uniformity_lab") -> int:
    """Wrap the package's public functions in every module namespace; returns
    the number of (namespace, name) bindings replaced."""
    modules = {name: mod for name, mod in sys.modules.items()
               if name == package or name.startswith(package + ".")}
    replaced = 0
    for mod_name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            owner = getattr(obj, "__module__", "") or ""
            if owner not in modules or owner == package:
                continue
            if getattr(obj, "__perfbench_wrapped__", False):
                continue
            setattr(mod, attr, _wrap(tracer, obj, attr, owner.rsplit(".", 1)[1],
                                     mod_name.rsplit(".", 1)[-1]))
            replaced += 1
    group_domain = modules[package + ".domains"].GroupDomain
    for name in DOMAIN_ACCESSORS:
        prop = vars(group_domain)[name]
        getter = _wrap(tracer, prop.fget, f"GroupDomain.{name}", "domains", "domains",
                       on_result=tracer.table)
        setattr(group_domain, name, property(getter, doc=prop.__doc__))
    return replaced


def pass_metrics(spans: list[dict], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    out: dict[str, float] = Counter({name: 0.0 for name in METRIC_NAMES
                                     if name.endswith("self_s")})
    for span in spans:
        out[span["name"].split(".", 1)[0] + ".self_s"] += span["self"]
        if "." in span["bucket"]:
            out[span["bucket"] + ".self_s"] += span["self"]
    out.update(counts)
    out["systems.in_span_calls"] = counts["systems->in_span"]
    for layer in OPS_LAYERS:
        self_s = out[f"{layer}.self_s"]
        out[f"{layer}.ops_per_s"] = counts[f"budget.ops_est.{layer}"] / self_s if self_s else 0.0
    out["trace.spans"] = len(spans)
    return out


def write_spans(path: str, spans: list[dict]) -> None:
    """One traced pass as gzipped JSON lines (a catalog pass has ~10^5 spans)."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
