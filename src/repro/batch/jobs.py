"""Batch jobs: one (program, analysis, solver) unit of corpus work.

A :class:`JobSpec` is plain, picklable data -- the farm ships it to a
worker process, and :func:`execute_job` turns it into a structured
:class:`JobResult` *without ever raising*: every failure class is caught
in-process and mapped onto the CLI's exit-code taxonomy (``repro
--help``), so one diverging or crashing job can never poison its batch.

The deterministic core of a result -- the post-solution fingerprint, the
evaluation count, and the widen/narrow counters from the engine event
bus -- depends only on the job spec, never on scheduling: two runs of the
same corpus produce byte-identical deterministic fields regardless of the
worker count.  Wall time and peak RSS are measured too, but kept apart
(:meth:`JobResult.deterministic` excludes them).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple

#: Per-job outcome codes, mirroring the CLI taxonomy (``repro --help``).
EXIT_OK = 0
EXIT_UNKNOWN = 1
EXIT_INPUT = 2
EXIT_DIVERGENCE = 3
EXIT_FAULT = 4

#: Job status strings, keyed by what produced them.
STATUS_CODES = {
    "ok": EXIT_OK,
    "unknown": EXIT_UNKNOWN,
    "findings": EXIT_UNKNOWN,
    "input-error": EXIT_INPUT,
    "violated": EXIT_INPUT,
    "divergence": EXIT_DIVERGENCE,
    "fault": EXIT_FAULT,
    "crash": EXIT_FAULT,
}


def build_domain(name: str, thresholds: Tuple = ()):
    """A numeric domain by CLI name (shared with ``repro analyze``)."""
    from repro.analysis import (
        CongruenceDomain,
        IntervalCongruenceDomain,
        IntervalDomain,
        SignDomain,
    )

    if name == "interval":
        return IntervalDomain(thresholds=thresholds)
    if name == "interval-congruence":
        return IntervalCongruenceDomain(thresholds=thresholds)
    if name == "sign":
        return SignDomain()
    if name == "congruence":
        return CongruenceDomain()
    raise ValueError(f"unknown domain {name!r}")


def build_policy(name: str, domain):
    """A context policy by CLI name (shared with ``repro analyze``)."""
    from repro.analysis import FullValueContext, InsensitiveContext
    from repro.analysis.inter import sign_context

    if name == "insensitive":
        return InsensitiveContext()
    if name == "sign":
        return sign_context(domain)
    if name == "full":
        return FullValueContext()
    raise ValueError(f"unknown context policy {name!r}")


@dataclass(frozen=True)
class JobSpec:
    """One batch job: program source plus the full analysis configuration.

    Everything is plain data so instances pickle across process
    boundaries and hash/compare deterministically.
    """

    #: Stable identifier, unique within a corpus (e.g. ``wcet/bs/warrow``).
    id: str
    #: Workload family the job belongs to (``examples``, ``wcet``, ...).
    family: str
    #: Program name within the family.
    program: str
    #: mini-C source text.
    source: str
    #: Numeric value domain (CLI name).
    domain: str = "interval"
    #: Context policy (CLI name).
    context: str = "insensitive"
    #: Registry name of the side-effecting local solver.
    solver: str = "slr+"
    #: Update-strategy spec string (:mod:`repro.strategies`), e.g.
    #: ``"warrow"``, ``"widen:delay=2"``, ``"warrow-k:k=3"``,
    #: ``"twophase"``.  The raw client string is preserved verbatim in
    #: results and cache keys.
    op: str = "warrow"
    #: Widening delay of the update operator; seeds the strategy's
    #: ``delay`` parameter when the spec does not set one itself.
    widen_delay: int = 1
    #: Collect widening thresholds from the program's constants.
    thresholds: bool = False
    #: Evaluation budget (the divergence guard).
    max_evals: int = 5_000_000
    #: Per-job wall-clock deadline in seconds, enforced in-band by the
    #: supervision layer's :class:`DeadlineWatchdog` (``None``: no limit).
    deadline: Optional[float] = None
    #: Also check ``assert()`` statements and fold the verdict into the
    #: job code (``1`` unknown, ``2`` violated).
    verify: bool = False
    #: What to do with the solution: ``"solve"`` fingerprints it,
    #: ``"check"`` additionally runs the :mod:`repro.checkers` rules and
    #: reports diagnostics (status ``findings``/code 1 when any fire).
    #: Check jobs require a solve-ready combine strategy and ignore
    #: ``verify`` (the assertion rules subsume it).
    kind: str = "solve"
    #: Checker rule selection for ``kind="check"`` (empty: all rules).
    #: Stored canonically (registry order, deduplicated) so equal
    #: selections produce equal cache keys.
    rules: Tuple[str, ...] = ()
    #: Deterministic chaos injection (testing the farm itself): per-eval
    #: fault rate, kinds, optional exact fail index, fault cap, seed.
    chaos_rate: float = 0.0
    chaos_kinds: Tuple[str, ...] = ("raise",)
    chaos_fail_at: Optional[int] = None
    chaos_max_faults: int = 1
    chaos_seed: int = 0

    def with_deadline(self, deadline: Optional[float]) -> "JobSpec":
        """A copy with ``deadline`` (used for farm-wide defaults)."""
        return replace(self, deadline=deadline)


#: JobSpec fields that determine the *result content* of a job.  The
#: service cache keys on exactly these: labels (``id``/``family``/
#: ``program``) name a job but do not change its answer, the ``deadline``
#: only schedules it, and chaos options disqualify a job from caching
#: altogether (see :func:`spec_fingerprint`).
CACHE_KEY_FIELDS = (
    "source",
    "domain",
    "context",
    "solver",
    "op",
    "widen_delay",
    "thresholds",
    "max_evals",
    "verify",
    "kind",
    "rules",
)


def _config_blob(job: JobSpec, fields: Tuple[str, ...]) -> bytes:
    payload = {name: getattr(job, name) for name in fields}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def spec_fingerprint(job: JobSpec) -> str:
    """SHA-256 content address of a job's *semantic* configuration.

    Covers the program text **and** every option that can change the
    result (:data:`CACHE_KEY_FIELDS`) -- two jobs differing only in
    solver, domain, context, operator, delay, thresholds, budget or
    verification mode hash differently, so a result cache keyed on this
    digest can never serve one configuration's answer for another.

    :raises ValueError: for chaos-injecting jobs, whose outcomes are
        deliberately non-reproducible analysis results; they must never
        be content-addressed.
    """
    if job.chaos_rate or job.chaos_fail_at:
        raise ValueError("chaos-injecting jobs cannot be content-addressed")
    return hashlib.sha256(_config_blob(job, CACHE_KEY_FIELDS)).hexdigest()


def options_fingerprint(job: JobSpec) -> str:
    """SHA-256 over the configuration *without* the program text.

    Two jobs share this digest exactly when they run the same analysis
    configuration on (possibly) different programs -- the candidate
    criterion for warm-starting one from the other's solver snapshot.
    """
    fields = tuple(f for f in CACHE_KEY_FIELDS if f != "source")
    return hashlib.sha256(_config_blob(job, fields)).hexdigest()


#: JobResult fields that vary run-to-run (excluded from determinism
#: comparisons and from the byte-stability guarantee).
NONDETERMINISTIC_FIELDS = ("wall_time", "peak_rss_kb")


@dataclass(frozen=True)
class JobResult:
    """The structured outcome of one executed job."""

    #: The job's stable identifier.
    job: str
    family: str
    program: str
    #: Outcome class; see :data:`STATUS_CODES`.
    status: str
    #: Exit code under the CLI taxonomy (0/1/2/3/4).
    code: int
    #: Echo of the analysis configuration that produced this result.
    #: Results are routinely stored detached from their spec (bench
    #: documents, the service's content-addressed cache), and a result
    #: that does not say *which* solver/domain/context/operator produced
    #: it invites exactly the collision the cache key exists to prevent.
    solver: str = ""
    domain: str = ""
    context: str = ""
    op: str = ""
    #: SHA-256 fingerprint of the post solution (empty on failure).
    hash: str = ""
    #: Right-hand-side evaluations performed.
    evaluations: int = 0
    #: Committed value changes.
    updates: int = 0
    #: Distinct unknowns encountered.
    unknowns: int = 0
    #: Worklist high-water mark.
    max_queue: int = 0
    #: Widening-direction commits (engine event bus).
    widen_updates: int = 0
    #: Narrowing-direction commits (engine event bus).
    narrow_updates: int = 0
    #: Per-unknown direction reversals, summed.
    direction_switches: int = 0
    #: Region restarts performed (restarting solvers only; else 0).
    restarts: int = 0
    #: Assertion verdict counts, only for ``verify`` jobs.
    proved: int = 0
    unproved: int = 0
    #: Job kind echo (``solve`` or ``check``).
    kind: str = "solve"
    #: Number of checker diagnostics, only for ``check`` jobs.
    findings: int = 0
    #: The diagnostics themselves, as plain JSON dicts (picklable across
    #: the farm's process boundary, serialisable in the service cache).
    #: Deterministic and canonically sorted; see :mod:`repro.checkers`.
    diagnostics: Tuple[dict, ...] = ()
    #: Wall-clock seconds for this execution (nondeterministic).
    wall_time: float = 0.0
    #: Process RSS high-water mark in KiB at job end (nondeterministic;
    #: monotone per worker process, so an upper bound for the job).
    peak_rss_kb: int = 0
    #: Failure detail (exception repr) for non-ok statuses.
    error: str = ""

    def deterministic(self) -> dict:
        """The scheduling-independent fields, as a plain dict."""
        data = asdict(self)
        for key in NONDETERMINISTIC_FIELDS:
            data.pop(key)
        return data

    def to_json(self) -> dict:
        """The full result as a JSON-able dict (stable key order)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "JobResult":
        data = dict(data)
        if "diagnostics" in data:
            data["diagnostics"] = tuple(data["diagnostics"])
        return cls(**data)


#: ``json.dumps(obj, sort_keys=True)``, with the encoder built once.
_SORT_KEY = json.JSONEncoder(sort_keys=True).encode


def solution_fingerprint(sigma: dict, lattice) -> str:
    """SHA-256 over a canonical JSON encoding of a post solution.

    Unknowns and lattice values are encoded with the incremental layer's
    deterministic codecs and sorted by encoded unknown, so the digest is
    independent of dict iteration order, process, and worker count.
    """
    from repro.incremental import UnknownCodec, value_codec

    uc = UnknownCodec()
    vc = value_codec(lattice)
    pairs = sorted(
        ([uc.encode(x), vc.encode(v)] for x, v in sigma.items()),
        key=lambda pair: _SORT_KEY(pair[0]),
    )
    blob = json.dumps(pairs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _peak_rss_kb() -> int:
    """The process's RSS high-water mark in KiB (0 where unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalise to KiB.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        rss //= 1024
    return int(rss)


def _chaos_policy(job: JobSpec):
    from repro.supervise import ChaosPolicy, FaultSpec

    if not (job.chaos_rate or job.chaos_fail_at):
        return None
    faults = []
    if job.chaos_fail_at:
        faults.append(FaultSpec("raise", at=job.chaos_fail_at))
    return ChaosPolicy(
        seed=job.chaos_seed,
        faults=faults,
        rate=job.chaos_rate,
        kinds=job.chaos_kinds,
        max_faults=job.chaos_max_faults,
    )


def _failure(job: JobSpec, status: str, err, started: float) -> JobResult:
    stats = getattr(err, "stats", None)
    return JobResult(
        job=job.id,
        family=job.family,
        program=job.program,
        status=status,
        code=STATUS_CODES[status],
        solver=job.solver,
        domain=job.domain,
        context=job.context,
        op=job.op,
        kind=job.kind,
        evaluations=stats.evaluations if stats is not None else 0,
        updates=stats.updates if stats is not None else 0,
        wall_time=time.perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(),
        error=repr(err),
    )


def execute_job(job: JobSpec) -> JobResult:
    """Run one job in-process and classify the outcome; never raises.

    Input problems (parse/semantic errors, unknown domains/solvers) map
    to code ``2``, divergence (budget or the reused supervision deadline
    watchdog) to ``3``, faults out of right-hand sides -- injected or
    genuine -- to ``4``; ``verify`` jobs additionally fold the assertion
    verdicts in (``1`` unknown, ``2`` violated), exactly like the
    ``repro verify`` subcommand.
    """
    from repro.analysis import check_assertions, collect_thresholds, summarize
    from repro.analysis.inter import (
        InterAnalysis,
        analyze_program_twophase,
        collect_analysis,
    )
    from repro.analysis.verify import Verdict
    from repro.checkers import UnknownRuleError
    from repro.lang import LexError, ParseError, SemanticError, compile_program
    from repro.solvers.registry import (
        SolverCapabilityError,
        UnknownSolverError,
        get_solver,
    )
    from repro.solvers.stats import DivergenceError
    from repro.strategies import (
        BuildContext,
        UnknownStrategyError,
        build_combine,
        get_strategy,
        parse_spec,
        resolve_spec,
    )
    from repro.supervise import ChaosSystem
    from repro.supervise.watchdog import DeadlineWatchdog

    started = time.perf_counter()
    try:
        if job.kind not in ("solve", "check"):
            raise ValueError(f"unknown job kind {job.kind!r}")
        check_rules = None
        if job.kind == "check":
            from repro.checkers import resolve_rules

            check_rules = resolve_rules(job.rules or None)
        cfg = compile_program(job.source)
        strategy = get_strategy(parse_spec(job.op).name)
        phased = strategy.kind == "phased"
        if phased and job.kind == "check":
            raise ValueError(
                "check jobs require a solve-ready combine strategy; "
                f"{job.op!r} is phased"
            )
        resolved = resolve_spec(job.op, widen_delay=job.widen_delay)
        need_thresholds = job.thresholds or strategy.needs_thresholds
        thresholds = collect_thresholds(cfg) if need_thresholds else ()
        domain = build_domain(job.domain, thresholds)
        policy = build_policy(job.context, domain)
        analysis = InterAnalysis(cfg, domain, policy)
        op = None
        if phased:
            spec = get_solver(job.solver, side_effecting=True, scope="local")
            if job.chaos_rate or job.chaos_fail_at:
                raise ValueError(
                    "chaos injection is not supported for phased strategies"
                )
        else:
            spec = get_solver(
                job.solver, side_effecting=True, scope="local", takes_op=True
            )
            op = build_combine(
                resolved,
                analysis.lattice,
                ctx=BuildContext(cfg=cfg, thresholds=tuple(thresholds)),
            )
    except (
        LexError,
        ParseError,
        SemanticError,
        UnknownSolverError,
        UnknownStrategyError,
        UnknownRuleError,
        SolverCapabilityError,
        ValueError,
    ) as err:
        return _failure(job, "input-error", err, started)

    try:
        system = analysis.system()
        chaos = _chaos_policy(job)
        if chaos is not None:
            system = ChaosSystem(system, chaos)
        observers = []
        if job.deadline is not None:
            observers.append(DeadlineWatchdog(job.deadline))
    except ValueError as err:  # bad deadline or chaos spec
        return _failure(job, "input-error", err, started)

    analysis_result = None
    try:
        if phased:
            analysis_result = analyze_program_twophase(
                cfg,
                domain,
                policy,
                max_evals=job.max_evals,
                track_contributions=(resolved.name == "decoupled"),
                widen_delay=resolved.get("delay", job.widen_delay),
                solver=job.solver,
                observers=observers,
            )
            result = analysis_result.solver_result
        else:
            result = spec(
                system,
                op,
                analysis.root(),
                max_evals=job.max_evals,
                observers=observers,
            )
    except DivergenceError as err:
        return _failure(job, "divergence", err, started)
    except Exception as err:
        return _failure(job, "fault", err, started)

    status, code = "ok", EXIT_OK
    proved = unproved = 0
    findings = 0
    diagnostics: Tuple[dict, ...] = ()
    if job.kind == "check":
        from repro.checkers import apply_rules

        analysis_result = collect_analysis(analysis, result)
        diags = apply_rules(cfg, analysis_result, check_rules)
        findings = len(diags)
        diagnostics = tuple(d.to_json() for d in diags)
        if findings:
            status, code = "findings", EXIT_UNKNOWN
    elif job.verify:
        if analysis_result is None:
            analysis_result = collect_analysis(analysis, result)
        reports = check_assertions(cfg, analysis_result)
        counts = summarize(reports)
        proved = counts[Verdict.PROVED]
        unproved = counts[Verdict.UNKNOWN] + counts[Verdict.VIOLATED]
        if counts[Verdict.VIOLATED]:
            status, code = "violated", EXIT_INPUT
        elif counts[Verdict.UNKNOWN]:
            status, code = "unknown", EXIT_UNKNOWN

    stats = result.stats
    return JobResult(
        job=job.id,
        family=job.family,
        program=job.program,
        status=status,
        code=code,
        solver=job.solver,
        domain=job.domain,
        context=job.context,
        op=job.op,
        hash=solution_fingerprint(result.sigma, analysis.lattice),
        evaluations=stats.evaluations,
        updates=stats.updates,
        unknowns=stats.unknowns,
        max_queue=stats.max_queue,
        widen_updates=stats.widen_updates,
        narrow_updates=stats.narrow_updates,
        direction_switches=stats.direction_switches,
        restarts=stats.restarts,
        proved=proved,
        unproved=unproved,
        kind=job.kind,
        findings=findings,
        diagnostics=diagnostics,
        wall_time=time.perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(),
    )
