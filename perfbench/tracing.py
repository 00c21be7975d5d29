"""Outside-in tracing: spans around calls into each layer's public functions.

:class:`Tracer` swaps wrappers in for the functions and methods listed in
:data:`PATCHES` -- at the module attribute the caller looks them up by --
and restores the originals on :meth:`Tracer.uninstall`.  Nothing under
``src/`` changes.  A span records name, start, end, parent span, job or
request id and thread; spans are kept in memory, turned into per-layer
metrics (summed self time, counts, ratios) and written to the run record
when the run ends.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

from common import percentile


def _lang_tokens(tokens, args, kwargs):
    return {"tokens": len(tokens)}


def _cfg_nodes(cfg, args, kwargs):
    return {"nodes": sum(len(fn.nodes) for fn in cfg.functions.values())}


def _solver_stats(result, args, kwargs):
    stats = result.stats
    return {
        "evaluations": stats.evaluations,
        "updates": stats.updates,
        "unknowns": stats.unknowns,
        "widen_updates": stats.widen_updates,
        "narrow_updates": stats.narrow_updates,
        "restarts": stats.restarts,
    }


def _findings(diags, args, kwargs):
    return {"findings": len(diags)}


def _attempts(report, args, kwargs):
    return {"attempts": len(report.attempts)}


def _dirty(diff, args, kwargs):
    new_cfg = args[1]
    return {
        "dirty": len(diff.dirty_nodes),
        "nodes": sum(len(fn.nodes) for fn in new_cfg.functions.values()),
    }


def _hit(entry, args, kwargs):
    return {"hit": entry is not None}


def _store_hit(entry, args, kwargs):
    if not kwargs.get("count", args[2] if len(args) > 2 else True):
        return None
    return {"hit": entry is not None}


#: ``(module, attribute path, span name, result probe)``.  A dotted
#: attribute path patches a method on a class.
PATCHES = (
    ("repro.lang.parser", "tokenize", "lang.lex", _lang_tokens),
    ("repro.lang", "parse_program", "lang.parse", None),
    ("repro.lang", "check_program", "lang.sema", None),
    ("repro.lang", "build_cfg", "lang.cfg", _cfg_nodes),
    ("repro.analysis", "collect_thresholds", "analysis.configure", None),
    ("repro.batch.jobs", "build_domain", "analysis.configure", None),
    ("repro.batch.jobs", "build_policy", "analysis.configure", None),
    ("repro.service.executor", "build_domain", "analysis.configure", None),
    ("repro.service.executor", "build_policy", "analysis.configure", None),
    ("repro.analysis.inter", "InterAnalysis.__init__", "analysis.configure", None),
    ("repro.analysis.inter", "InterAnalysis.system", "analysis.configure", None),
    ("repro.strategies", "build_combine", "strategies.build", None),
    ("repro.service.executor", "build_combine", "strategies.build", None),
    ("repro.solvers.registry", "SolverSpec.__call__", "solvers.solve", _solver_stats),
    ("repro.analysis.inter", "collect_analysis", "checkers.collect", None),
    ("repro.checkers", "apply_rules", "checkers.rules", _findings),
    ("repro.batch.jobs", "solution_fingerprint", "batch.fingerprint", None),
    ("repro.service.executor", "solution_fingerprint", "batch.fingerprint", None),
    ("repro.batch.jobs", "execute_job", "batch.execute", None),
    ("repro.service.executor", "supervised_solve", "supervise.solve", _attempts),
    ("repro.supervise.run", "check_post_solution", "incremental.verify", None),
    ("repro.service.executor", "check_post_solution", "incremental.verify", None),
    ("repro.service.executor", "capture", "incremental.capture", None),
    ("repro.incremental.state", "SolverState.dumps", "incremental.capture", None),
    ("repro.incremental.state", "SolverState.loads", "incremental.loads", None),
    ("repro.service.executor", "diff_cfg", "incremental.diff", _dirty),
    ("repro.service.executor", "transfer_state", "incremental.transfer", None),
    ("repro.service.executor", "warm_solve_slr_side", "incremental.warm_solve", None),
    ("repro.service.daemon", "solve_request_to_jobspec", "service.normalize", None),
    ("repro.service.daemon", "check_request_to_jobspec", "service.normalize", None),
    ("repro.service.daemon", "spec_fingerprint", "service.normalize", None),
    ("repro.service.cache", "ResultCache.get", "service.cache.lookup", _hit),
    ("repro.service.cache", "ResultCache.put", "service.cache.put", None),
    ("repro.service.cache", "ResultCache.warm_candidates", "service.cache.warm_candidates", None),
    ("repro.service.daemon", "execute_service_job", "service.execute", None),
    ("repro.fleet.router", "solve_request_to_jobspec", "fleet.router.normalize", None),
    ("repro.fleet.router", "check_request_to_jobspec", "fleet.router.normalize", None),
    ("repro.fleet.router", "spec_fingerprint", "fleet.router.normalize", None),
    ("repro.fleet.store", "SharedStore.get", "fleet.store.get", _store_hit),
    ("repro.fleet.store", "SharedStore.put", "fleet.store.put", None),
    ("repro.fleet.store", "SharedStore.warm_candidates", "fleet.store.warm_candidates", None),
    ("repro.fleet.store", "SharedStore.prune", "fleet.store.prune", None),
)

#: Spans that end the synchronous part of a dispatch right before the
#: request is handed to the worker pool (their ``exclude`` is its key).
_DISPATCH_MARKS = ("service.cache.warm_candidates", "fleet.store.warm_candidates")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "thread", "info", "child_time")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.thread = threading.get_ident()
        self.info = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Installs the wrappers and records spans in memory."""

    def __init__(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._saved = []
        #: request key -> end of its dispatch (see :data:`_DISPATCH_MARKS`).
        self.dispatched = {}
        #: ``(queue wait seconds, key)`` per execution.
        self.queue_waits = []

    # -- span bookkeeping ------------------------------------------------ #

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self) -> list:
        """Spans as ``[name, start_ms, end_ms, parent index, job, thread]``
        rows, times relative to the first span."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = min((span.start for span in self.spans), default=0.0)
        return [
            [
                span.name,
                round((span.start - origin) * 1000.0, 4),
                round((span.end - origin) * 1000.0, 4),
                index.get(id(span.parent)) if span.parent is not None else None,
                span.job,
                span.thread,
            ]
            for span in self.spans
        ]

    def clear(self) -> None:
        self.spans = []
        self.dispatched = {}
        self.queue_waits = []

    def _wrap(self, name, fn, probe):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            job = parent.job if parent is not None else None
            if name == "service.execute":
                job = _spec_key(args[0])
                mark = tracer.dispatched.pop(job, None)
                if mark is not None:
                    tracer.queue_waits.append((time.perf_counter() - mark, job))
            elif name == "batch.execute" and job is None:
                job = args[0].id
            span = Span(name, time.perf_counter(), parent, job)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.duration
                tracer.spans.append(span)
            if probe is not None:
                span.info = probe(result, args, kwargs)
            elif name == "service.execute":
                span.info = {"mode": result.mode, "kind": args[0].kind}
            if name in _DISPATCH_MARKS:
                key = kwargs.get("exclude", args[2] if len(args) > 2 else None)
                if key is not None:
                    tracer.dispatched[key] = span.end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall --------------------------------------------- #

    def install(self) -> None:
        if self._saved:
            return
        for module_name, path, name, probe in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__, probe))
            else:
                replacement = self._wrap(name, raw, probe)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []


def _spec_key(spec) -> str:
    # ``repro.batch.jobs.spec_fingerprint`` itself is never wrapped (only
    # the daemon's and the router's imports of it are), so this records
    # no span.
    from repro.batch.jobs import spec_fingerprint

    return spec_fingerprint(spec)


# --------------------------------------------------------------------- #
# Per-layer metrics.                                                    #
# --------------------------------------------------------------------- #

#: Timing metrics: metric name -> span names whose self time it sums.
SELF_TIME = {
    "lang.lex_ms": ("lang.lex",),
    "lang.parse_ms": ("lang.parse",),
    "lang.sema_ms": ("lang.sema",),
    "lang.cfg_ms": ("lang.cfg",),
    "analysis.configure_ms": ("analysis.configure",),
    "strategies.build_ms": ("strategies.build",),
    "solvers.solve_ms": ("solvers.solve",),
    "batch.fingerprint_ms": ("batch.fingerprint",),
    "batch.execute_ms": ("batch.execute",),
    "checkers.collect_ms": ("checkers.collect",),
    "checkers.rules_ms": ("checkers.rules",),
    "supervise.overhead_ms": ("supervise.solve",),
    "incremental.verify_ms": ("incremental.verify",),
    "incremental.capture_ms": ("incremental.capture",),
    "incremental.loads_ms": ("incremental.loads",),
    "incremental.diff_ms": ("incremental.diff",),
    "incremental.transfer_ms": ("incremental.transfer",),
    "incremental.warm_solve_ms": ("incremental.warm_solve",),
    "service.normalize_ms": ("service.normalize",),
    "service.cache.lookup_ms": ("service.cache.lookup",),
    "service.cache.put_ms": ("service.cache.put",),
    "service.cache.warm_candidates_ms": ("service.cache.warm_candidates",),
    "fleet.store.get_ms": ("fleet.store.get",),
    "fleet.store.put_ms": ("fleet.store.put",),
    "fleet.store.warm_candidates_ms": ("fleet.store.warm_candidates",),
    "fleet.store.prune_ms": ("fleet.store.prune",),
}

#: Service and fleet timings that also report per-call p50/p99.
PER_CALL = (
    "service.normalize_ms",
    "service.cache.lookup_ms",
    "service.cache.put_ms",
    "service.cache.warm_candidates_ms",
    "service.queue_wait_ms",
    "service.executor.cold_ms",
    "service.executor.warm_ms",
    "service.executor.check_ms",
    "service.server_ms",
    "fleet.router.forward_ms",
    "fleet.store.get_ms",
    "fleet.store.put_ms",
    "fleet.store.warm_candidates_ms",
    "fleet.store.prune_ms",
)

COUNTS = (
    "lang.tokens",
    "lang.cfg_nodes",
    "solvers.evaluations",
    "solvers.updates",
    "solvers.unknowns",
    "solvers.widen_updates",
    "solvers.narrow_updates",
    "solvers.restarts",
    "checkers.findings",
    "supervise.attempts",
    "incremental.diff_calls",
    "service.coalesced",
)

RATIOS = (
    "solvers.update_ratio",
    "incremental.dirty_share",
    "service.cache.hit_ratio",
    "service.warm.accept_ratio",
    "fleet.store.hit_ratio",
    "fleet.shard_skew",
    "service.reply.hit_share",
    "service.reply.cold_share",
    "service.reply.warm_share",
    "service.reply.check_share",
    "service.reply.coalesced_share",
    "trace.overhead_share",
    "trace.unattributed_share",
)

#: Every per-layer metric name with its unit, in report order.
PER_LAYER = (
    [(name, "ms") for name in SELF_TIME]
    + [("supervise.solve_ms", "ms"), ("service.queue_wait_ms", "ms"),
       ("service.executor.cold_ms", "ms"), ("service.executor.warm_ms", "ms"),
       ("service.executor.check_ms", "ms"), ("service.server_ms", "ms"),
       ("fleet.router.forward_ms", "ms")]
    + [(f"{name}.{q}", "ms") for name in PER_CALL for q in ("p50", "p99")]
    + [(name, "count") for name in COUNTS]
    + [(name, "ratio") for name in RATIOS]
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, scale: float, queue_waits=(), extra_calls=None) -> dict:
    """Per-layer values from recorded spans (ms metrics in milliseconds).

    Sums (self times and counts) are multiplied by ``scale``, which turns
    them into per-pass or per-1000-request figures; per-call percentiles
    and ratios are not scaled.  ``extra_calls`` maps timing metrics
    measured outside spans (server and forward times) to their
    per-call millisecond values.
    """
    calls = defaultdict(list)
    by_span = defaultdict(list)
    for span in spans:
        by_span[span.name].append(span)
    # Layers a workload never reaches report 0.
    values = {name: 0.0 for name, _ in PER_LAYER}
    for metric, names in SELF_TIME.items():
        per_call = [s.self_time * 1000.0 for n in names for s in by_span[n]]
        values[metric] = sum(per_call)
        calls[metric] = per_call
    values["supervise.solve_ms"] = sum(
        s.duration * 1000.0 for s in by_span["supervise.solve"]
    )
    calls["service.queue_wait_ms"] = [wait * 1000.0 for wait, _ in queue_waits]
    for span in by_span["service.execute"]:
        info = span.info or {}
        kind = "check" if info.get("kind") == "check" else info.get("mode", "cold")
        calls[f"service.executor.{kind}_ms"].append(span.duration * 1000.0)
    for metric, per_call in (extra_calls or {}).items():
        calls[metric] = list(per_call)
    for metric in PER_CALL:
        if metric not in SELF_TIME:
            values[metric] = sum(calls[metric])
        values[f"{metric}.p50"] = percentile(calls[metric], 0.50)
        values[f"{metric}.p99"] = percentile(calls[metric], 0.99)

    def total(span_name, field):
        return sum((s.info or {}).get(field, 0) for s in by_span[span_name])

    values["lang.tokens"] = total("lang.lex", "tokens")
    values["lang.cfg_nodes"] = total("lang.cfg", "nodes")
    for field in ("evaluations", "updates", "unknowns", "widen_updates",
                  "narrow_updates", "restarts"):
        values[f"solvers.{field}"] = total("solvers.solve", field)
    values["solvers.update_ratio"] = _ratio(
        values["solvers.updates"], values["solvers.evaluations"]
    )
    values["checkers.findings"] = total("checkers.rules", "findings")
    values["supervise.attempts"] = total("supervise.solve", "attempts")
    values["incremental.diff_calls"] = len(by_span["incremental.diff"])
    values["incremental.dirty_share"] = _ratio(
        total("incremental.diff", "dirty"), total("incremental.diff", "nodes")
    )
    lookups = [s.info["hit"] for s in by_span["service.cache.lookup"] if s.info]
    values["service.cache.hit_ratio"] = _ratio(sum(lookups), len(lookups))
    gets = [s.info["hit"] for s in by_span["fleet.store.get"] if s.info]
    values["fleet.store.hit_ratio"] = _ratio(sum(gets), len(gets))
    warm = sum(
        1 for s in by_span["service.execute"] if (s.info or {}).get("mode") == "warm"
    )
    values["service.warm.accept_ratio"] = _ratio(warm, len(by_span["incremental.diff"]))
    for name, unit in PER_LAYER:
        if (unit == "ms" and not name.endswith((".p50", ".p99"))) or unit == "count":
            values[name] *= scale
    return values


def covered_server_time(spans, queue_waits) -> float:
    """Seconds of request time inside a server-side layer span.

    Top-level spans only (their children are inside them); the router's
    own normalization is excluded, it lies inside the forward time.
    """
    covered = sum(wait for wait, _ in queue_waits)
    for span in spans:
        if span.parent is None and not span.name.startswith("fleet.router"):
            covered += span.duration
    return covered
