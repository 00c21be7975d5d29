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

A job runs in three stages.  :func:`configure` compiles the source and
builds the domain, context policy, analysis, solver and operator;
:func:`solve` runs one operator-taking pass or the phased schedule; and
:func:`finish` adds verdicts and the fingerprint and builds the result
(failures go straight to :func:`job_result`).  Every entry point that
solves a job spec -- batch jobs, service requests, ``repro check``,
matrix cells and the CLI's analysis commands -- configures it here; the
service and ``repro solve`` swap :func:`solve` for a supervised or
warm-started one.
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


def input_errors() -> Tuple[type, ...]:
    """The exception classes :func:`configure` raises for bad input.

    Every caller maps them onto exit code ``2``: a program that does not
    compile; an unknown solver, strategy or rule; and, as ``ValueError``
    (which ``SpecError`` and ``SolverCapabilityError`` are), an incapable
    solver, a malformed spec or an unknown domain, context or option.
    """
    from repro.checkers import UnknownRuleError
    from repro.lang import LexError, ParseError, SemanticError
    from repro.solvers.registry import UnknownSolverError
    from repro.strategies import UnknownStrategyError

    return (
        LexError,
        ParseError,
        SemanticError,
        UnknownSolverError,
        UnknownStrategyError,
        UnknownRuleError,
        ValueError,
    )


@dataclass(frozen=True)
class Setup:
    """A configured job: the compiled program and everything its solve needs.

    :func:`configure` builds it, :func:`solve` runs it and :func:`finish`
    turns the solution into a :class:`JobResult`.  Every entry point
    configures through here, so one job spec always means one equation
    system, one operator and one solver.
    """

    job: JobSpec
    #: The compiled program.
    cfg: object
    #: The numeric domain, carrying the program's widening thresholds
    #: when the job or its strategy asks for them.
    domain: object
    #: The context policy.
    policy: object
    #: The :class:`~repro.analysis.inter.InterAnalysis` to solve.
    analysis: object
    #: The resolved strategy spec (every parameter explicit).
    strategy: object
    #: The side-effecting local solver's registry record.
    solver: object
    #: The combine operator; ``None`` for a phased strategy, whose
    #: schedule brings its own operators.  It keeps per-unknown
    #: counters, so a setup is solved once.
    op: object = None
    #: The checker rules of a check job (``None`` otherwise).
    rules: Optional[tuple] = None

    def single_pass(self, where: str):
        """The combine operator, for callers that run exactly one pass.

        :raises SpecError: for a phased strategy, naming ``where`` it
            cannot run.
        """
        if self.op is None:
            from repro.strategies import SpecError

            raise SpecError(
                f"strategy {self.job.op!r} is phased (two solver passes) and "
                f"cannot run {where}"
            )
        return self.op


def configure(job: JobSpec) -> Setup:
    """Compile and configure ``job``; raises :func:`input_errors` classes.

    Widening thresholds are collected exactly when the job sets
    ``thresholds`` or its strategy needs them.  A check job needs a
    combine strategy: a phased one raises
    :class:`~repro.strategies.SpecError`.  A deadline that is not
    positive raises ``ValueError``, like any other bad option.
    """
    # Imported per call: perfbench/tracing.py wraps collect_thresholds and
    # build_combine in these modules, build_domain and build_policy here.
    from repro.analysis import collect_thresholds
    from repro.analysis.inter import InterAnalysis
    from repro.lang import compile_program
    from repro.solvers.registry import get_solver
    from repro.strategies import (
        BuildContext,
        SpecError,
        build_combine,
        get_strategy,
        parse_spec,
        resolve_spec,
    )

    if job.kind not in ("solve", "check"):
        raise ValueError(f"unknown job kind {job.kind!r}")
    rules = None
    if job.kind == "check":
        from repro.checkers import resolve_rules

        rules = resolve_rules(job.rules or None)
    cfg = compile_program(job.source)
    strategy = get_strategy(parse_spec(job.op).name)
    phased = strategy.kind == "phased"
    if phased and job.kind == "check":
        raise SpecError(
            "check requires a solve-ready combine strategy; "
            f"{strategy.name!r} is phased (try e.g. 'warrow:delay=1' or 'widen')"
        )
    resolved = resolve_spec(job.op, widen_delay=job.widen_delay)
    need_thresholds = job.thresholds or strategy.needs_thresholds
    thresholds = collect_thresholds(cfg) if need_thresholds else ()
    domain = build_domain(job.domain, thresholds)
    policy = build_policy(job.context, domain)
    analysis = InterAnalysis(cfg, domain, policy)
    solver = get_solver(job.solver, side_effecting=True, scope="local", takes_op=True)
    op = None
    if not phased:
        op = build_combine(resolved, analysis.lattice, ctx=BuildContext(cfg=cfg))
    if job.deadline is not None and job.deadline <= 0:
        raise ValueError("deadline must be positive")
    return Setup(job, cfg, domain, policy, analysis, resolved, solver, op, rules)


def solve(setup: Setup, *, system=None, observers=()):
    """Solve a configured job; the solver's raw result.

    A combine strategy is one pass of the operator-taking solver over
    ``system`` (default: the analysis' own).  A phased strategy runs its
    widening-then-narrowing schedule on the same analysis
    (:func:`repro.analysis.inter.solve_twophase`).
    """
    job = setup.job
    if setup.op is None:
        from repro.analysis.inter import solve_twophase

        return solve_twophase(
            setup.analysis,
            max_evals=job.max_evals,
            track_contributions=(setup.strategy.name == "decoupled"),
            widen_delay=setup.strategy.get("delay", job.widen_delay),
            solver=setup.solver,
            observers=observers,
        )
    return setup.solver(
        setup.analysis.system() if system is None else system,
        setup.op,
        setup.analysis.root(),
        max_evals=job.max_evals,
        observers=observers,
    )


def finish(setup: Setup, solver_result, started: float) -> JobResult:
    """The result of a finished solve: verdicts, fingerprint, statistics.

    A check job runs its rules over the solution (status ``findings``
    when any fire).  A ``verify`` job folds the assertion verdicts in
    (``unknown``, ``violated``), exactly like ``repro verify``.
    """
    from repro.analysis.inter import collect_analysis

    job = setup.job
    fields = {}
    if job.kind == "check":
        from repro.checkers import apply_rules

        analysis_result = collect_analysis(setup.analysis, solver_result)
        diags = apply_rules(setup.cfg, analysis_result, setup.rules)
        fields.update(
            status="findings" if diags else "ok",
            findings=len(diags),
            diagnostics=tuple(d.to_json() for d in diags),
        )
    elif job.verify:
        from repro.analysis import check_assertions, summarize
        from repro.analysis.verify import Verdict

        analysis_result = collect_analysis(setup.analysis, solver_result)
        counts = summarize(check_assertions(setup.cfg, analysis_result))
        status = "ok"
        if counts[Verdict.VIOLATED]:
            status = "violated"
        elif counts[Verdict.UNKNOWN]:
            status = "unknown"
        fields.update(
            status=status,
            proved=counts[Verdict.PROVED],
            unproved=counts[Verdict.UNKNOWN] + counts[Verdict.VIOLATED],
        )
    stats = solver_result.stats
    return job_result(
        job,
        started,
        hash=solution_fingerprint(solver_result.sigma, setup.analysis.lattice),
        evaluations=stats.evaluations,
        updates=stats.updates,
        unknowns=stats.unknowns,
        max_queue=stats.max_queue,
        widen_updates=stats.widen_updates,
        narrow_updates=stats.narrow_updates,
        direction_switches=stats.direction_switches,
        restarts=stats.restarts,
        **fields,
    )


def job_result(
    job: JobSpec, started: float, status: str = "ok", *, error=None, **fields
) -> JobResult:
    """The one :class:`JobResult` builder.

    Echoes the job's labels and options, codes ``status`` under the
    exit-code taxonomy and reads the clock against ``started``.  A
    failure passes its exception as ``error``: the repr is kept, and so
    are the partial counters a
    :class:`~repro.solvers.stats.DivergenceError` carries (explicit
    ``fields`` win).
    """
    if error is not None:
        stats = getattr(error, "stats", None)
        if stats is not None:
            fields = {
                "evaluations": stats.evaluations,
                "updates": stats.updates,
                **fields,
            }
        fields["error"] = repr(error)
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
        wall_time=time.perf_counter() - started,
        peak_rss_kb=_peak_rss_kb(),
        **fields,
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
    from repro.solvers.stats import DivergenceError
    from repro.supervise import ChaosSystem
    from repro.supervise.watchdog import DeadlineWatchdog

    started = time.perf_counter()
    try:
        setup = configure(job)
        chaos = _chaos_policy(job)
        system = None
        if chaos is not None:
            if setup.op is None:
                raise ValueError(
                    "chaos injection is not supported for phased strategies"
                )
            system = ChaosSystem(setup.analysis.system(), chaos)
        observers = []
        if job.deadline is not None:
            observers.append(DeadlineWatchdog(job.deadline))
    except input_errors() as err:
        return job_result(job, started, "input-error", error=err)

    try:
        solver_result = solve(setup, system=system, observers=observers)
    except DivergenceError as err:
        return job_result(job, started, "divergence", error=err)
    except Exception as err:
        return job_result(job, started, "fault", error=err)
    return finish(setup, solver_result, started)
