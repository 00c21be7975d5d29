"""Command-line interface: run, analyze, and verify mini-C programs, and
regenerate the paper's experiments.

Usage (also via ``python -m repro``)::

    repro run program.mc [-- ARGS...]       execute a program concretely
    repro analyze program.mc [options]      interval analysis report
    repro verify program.mc [options]       check assert() statements
    repro check program.mc [options]        run the bug-finding checkers
    repro solve program.mc [options]        supervised analysis run
    repro incr old.mc new.mc [options]      warm re-analysis after an edit
    repro dump-cfg program.mc               print the control-flow graphs
    repro solvers [--json]                  list the registered solvers
    repro strategies [--json]               list the combine strategies
    repro fig7 [BENCH ...]                  regenerate Figure 7
    repro table1 [PROGRAM ...]              regenerate Table 1
    repro bench [options]                   batch-solve the corpus, gate CI
    repro bench --matrix [options]          precision x cost strategy matrix
    repro serve [options]                   run the analysis daemon
    repro submit program.mc [options]       analyse via a running daemon
    repro status [options]                  daemon counters and cache stats
    repro shutdown [options]                drain and stop a daemon

Exit codes distinguish failure classes (see ``repro --help``): ``0``
success, ``1`` incomplete verification (for ``repro check``: diagnostics
reported), ``2`` input errors (including violated assertions), ``3``
solver divergence (budget or watchdog), ``4`` internal faults.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis import check_assertions, summarize
from repro.analysis.inter import collect_analysis
from repro.analysis.verify import Verdict
from repro.batch.jobs import JobSpec, configure, solve
from repro.lang import Interpreter, compile_program
from repro.lattices.lifted import LiftedBottom


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _effective_spec(args) -> Optional[str]:
    """The strategy spec an analysis command should run.

    ``--op SPEC`` wins; the legacy ``--solver twophase`` shorthand maps
    onto the ``twophase`` strategy; otherwise ``None`` (the default
    combined-operator path, bit-identical to the pre-strategy CLI).
    """
    spec = getattr(args, "op", None)
    if spec is not None:
        return spec
    if getattr(args, "solver", "combined") == "twophase":
        return "twophase"
    return None


def _job(args) -> JobSpec:
    """The job an analysis command runs on ``args.file``.

    Built from the same options as a batch job, so ``repro analyze`` and
    friends solve exactly what ``repro bench`` and the service solve for
    the same program (default operator: ⌴ with delay 1).
    """
    return JobSpec(
        id=args.file,
        family="cli",
        program=os.path.basename(args.file),
        source=_read_source(args.file),
        domain=args.domain,
        context=args.context,
        solver=args.local_solver,
        op=_effective_spec(args) or "warrow",
        thresholds=args.thresholds,
        max_evals=args.max_evals,
    )


# --------------------------------------------------------------------- #
# Subcommands.                                                          #
# --------------------------------------------------------------------- #

def cmd_run(args) -> int:
    cfg = compile_program(_read_source(args.file))
    interp = Interpreter(cfg, fuel=args.fuel)
    result = interp.run("main", [int(a) for a in args.args])
    print(f"return value: {result.ret}")
    if result.globals:
        print("globals:")
        for name, value in sorted(result.globals.items()):
            print(f"  {name} = {value}")
    for name, cells in sorted(result.global_arrays.items()):
        print(f"  {name} = {cells}")
    print(f"({result.steps} edges executed)")
    return 0


def cmd_analyze(args) -> int:
    setup = configure(_job(args))
    result = collect_analysis(setup.analysis, solve(setup))
    cfg, domain = setup.cfg, setup.domain
    print(
        f"analysis: {args.domain} domain, {args.solver} solver, "
        f"{args.context} contexts -- "
        f"{result.unknown_count} unknowns, "
        f"{result.solver_result.stats.evaluations} evaluations"
    )
    if result.globals:
        print("\nflow-insensitive globals:")
        for name, value in sorted(result.globals.items()):
            print(f"  {name} = {domain.format(value)}")
    print("\ncontexts per function:")
    for fn, count in sorted(result.contexts_per_function.items()):
        print(f"  {fn}: {count}")
    from repro.analysis import find_unreachable

    dead = find_unreachable(cfg, result)
    if dead:
        print("\nunreachable program points:")
        for report in dead:
            print(f"  {report}")
    if args.points:
        print("\nabstract states (joined over contexts):")
        for fn_name, fn in sorted(cfg.functions.items()):
            for node in sorted(fn.nodes, key=lambda n: n.index):
                env = result.env_at(fn_name, node)
                if env is LiftedBottom:
                    print(f"  {node!r}: unreachable")
                else:
                    shown = ", ".join(
                        f"{var}={domain.format(env[var])}"
                        for var in sorted(env)
                        if not var.startswith("__")
                    )
                    print(f"  {node!r}: {shown}")
    return 0


def cmd_verify(args) -> int:
    setup = configure(_job(args))
    result = collect_analysis(setup.analysis, solve(setup))
    reports = check_assertions(setup.cfg, result)
    if not reports:
        print("no assertions found")
        return 0
    for report in reports:
        print(report)
    counts = summarize(reports)
    print(
        f"\n{counts[Verdict.PROVED]} proved, "
        f"{counts[Verdict.UNKNOWN]} unknown, "
        f"{counts[Verdict.VIOLATED]} violated, "
        f"{counts[Verdict.UNREACHABLE]} unreachable"
    )
    if counts[Verdict.VIOLATED]:
        return 2
    if counts[Verdict.UNKNOWN]:
        return 1
    return 0


def cmd_check(args) -> int:
    import json
    import os

    from repro.checkers import (
        DEFAULT_CHECK_OP,
        render_diagnostics_json,
        render_diagnostics_text,
        run_check,
        sarif_lite,
    )

    rules: List[str] = []
    for chunk in args.rules or ():
        rules.extend(name.strip() for name in chunk.split(",") if name.strip())
    spec = _effective_spec(args) or DEFAULT_CHECK_OP
    report = run_check(
        _read_source(args.file),
        program=os.path.basename(args.file),
        rules=rules or None,
        op=spec,
        domain=args.domain,
        context=args.context,
        solver=args.local_solver,
        thresholds=args.thresholds,
        max_evals=args.max_evals,
    )
    doc = report.document()
    if args.json:
        # The canonical byte encoding: goldens compare this exactly.
        sys.stdout.write(render_diagnostics_json(doc))
    elif args.sarif_lite:
        print(json.dumps(sarif_lite(doc), indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_diagnostics_text(doc))
    return report.exit_code()


def cmd_solve(args) -> int:
    from repro.supervise import ChaosPolicy, FaultSpec, supervised_solve

    setup = configure(_job(args))
    op = setup.single_pass(
        "under the single-pass supervision layer; use `repro analyze --op ...` "
        "instead"
    )

    chaos = None
    if args.chaos_rate or args.chaos_fail_at:
        faults = []
        if args.chaos_fail_at:
            faults.append(FaultSpec("raise", at=args.chaos_fail_at))
        chaos = ChaosPolicy(
            seed=args.chaos_seed,
            faults=faults,
            rate=args.chaos_rate,
            kinds=tuple(args.chaos_kinds.split(",")),
        )

    report = supervised_solve(
        setup.analysis.system(),
        op,
        setup.analysis.root(),
        solver=setup.solver.name,
        fallback=tuple(args.fallback or ()),
        deadline=args.deadline,
        max_evals=args.max_evals,
        descent_cap=args.descent_cap,
        escalate=not args.no_escalate,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_file,
        chaos=chaos,
        verify=not args.no_verify,
    )
    print(report.render())
    if args.stats and report.result is not None:
        stats = report.result.stats
        print("\nsolver statistics:")
        print(f"  evaluations:        {stats.evaluations}")
        print(f"  updates:            {stats.updates}")
        print(f"  widen updates:      {stats.widen_updates}")
        print(f"  narrow updates:     {stats.narrow_updates}")
        print(f"  direction switches: {stats.direction_switches}")
        print(f"  restarts:           {stats.restarts}")
        print(f"  unknowns:           {stats.unknowns}")
        print(f"  max queue:          {stats.max_queue}")
    if report.ok:
        return 0
    last = report.attempts[-1].outcome if report.attempts else "trip"
    if last == "fault" or report.consistency_problems:
        return 4
    return 3


def cmd_solvers(args) -> int:
    from repro.solvers.registry import all_specs

    if getattr(args, "json", False):
        import json

        from repro.solvers.registry import capability_listing

        print(json.dumps(capability_listing(), indent=2, sort_keys=True))
        return 0
    for spec in all_specs():
        caps = [spec.scope]
        if spec.side_effecting:
            caps.append("side-effecting")
        if not spec.takes_op:
            caps.append("fixed-op")
        if not spec.generic:
            caps.append("non-generic")
        if spec.memoizable:
            caps.append("memoizable")
        if spec.restarting:
            caps.append("restarting")
        if spec.takes_order:
            caps.append("takes-order")
        if spec.supports_warm_start:
            caps.append("supports-warm-start")
        if spec.supervisable:
            caps.append("supervisable")
        names = spec.name
        if spec.aliases:
            names += f" ({', '.join(spec.aliases)})"
        ref = f" [{spec.paper_ref}]" if spec.paper_ref else ""
        print(f"{names}: {', '.join(caps)}{ref}")
        if spec.summary:
            print(f"    {spec.summary}")
    return 0


def cmd_strategies(args) -> int:
    from repro.strategies import all_strategies, format_spec, resolve_spec

    if getattr(args, "json", False):
        import json

        from repro.strategies import strategy_listing

        print(json.dumps(strategy_listing(), indent=2, sort_keys=True))
        return 0
    for info in all_strategies():
        caps = [info.kind]
        if info.solve_ready:
            caps.append("solve-ready")
        if info.kind == "combine" and info.solve_ready:
            caps.append("restart-safe")
        if info.idempotent:
            caps.append("idempotent")
        if info.needs_thresholds:
            caps.append("needs-thresholds")
        if info.needs_cfg:
            caps.append("needs-cfg")
        names = info.name
        if info.aliases:
            names += f" ({', '.join(info.aliases)})"
        ref = f" [{info.paper_ref}]" if info.paper_ref else ""
        print(f"{names}: {', '.join(caps)}{ref}")
        if info.params:
            print(f"    canonical: {format_spec(resolve_spec(info.name))}")
        if info.summary:
            print(f"    {info.summary}")
    return 0


def cmd_dump_cfg(args) -> int:
    cfg = compile_program(_read_source(args.file))
    for fn_name, fn in cfg.functions.items():
        print(f"function {fn_name}({', '.join(fn.params)}):")
        print(f"  locals: {', '.join(fn.locals)}")
        if fn.arrays:
            arrays = ", ".join(f"{a}[{n}]" for a, n in fn.arrays.items())
            print(f"  arrays: {arrays}")
        for edge in fn.edges:
            print(f"  {edge.src!r} --{type(edge.instr).__name__}--> {edge.dst!r}")
        print()
    return 0


def cmd_incr(args) -> int:
    from repro.incremental import SolverState, capture, reanalyze_program

    # The snapshot names its solver, so the warm start resumes the same one.
    old = configure(_job(args))
    old.single_pass("as a warm start")
    new_cfg = compile_program(_read_source(args.edited))
    result = collect_analysis(old.analysis, solve(old))
    state = capture(result.solver_result, old.solver.name)
    cold_evals = result.solver_result.stats.evaluations
    print(
        f"cold solve of {args.file}: {result.unknown_count} unknowns, "
        f"{cold_evals} evaluations"
    )

    if args.state_file:
        # Persist and reload the snapshot: the warm start below runs off
        # the deserialized state, exercising the full round-trip.
        lattice = result.lattice
        with open(args.state_file, "w", encoding="utf-8") as handle:
            handle.write(state.dumps(lattice))
        with open(args.state_file, "r", encoding="utf-8") as handle:
            state = SolverState.loads(handle.read(), lattice)
        print(f"state saved to {args.state_file} and restored")

    report = reanalyze_program(
        old.cfg,
        new_cfg,
        state,
        old.domain,
        policy=old.policy,
        max_evals=args.max_evals,
        closure=args.closure,
        reset=args.reset,
        compare_scratch=not args.no_compare,
        op_spec=_effective_spec(args),
    )
    diff = report.diff
    print(
        f"diff against {args.edited}: {len(diff.dirty_nodes)} dirty nodes, "
        f"{len(diff.node_map)} matched, "
        f"{len(report.dirty)} dirty unknowns, "
        f"{report.transferred} unknowns transferred"
    )
    print(f"warm re-solve: {report.warm_evaluations} evaluations")
    if report.scratch is not None:
        scratch_evals = report.scratch_evaluations
        ratio = (
            scratch_evals / report.warm_evaluations
            if report.warm_evaluations
            else float("inf")
        )
        print(
            f"from-scratch re-solve: {scratch_evals} evaluations "
            f"({ratio:.1f}x more than warm)"
        )
    if report.sound:
        print("soundness: warm solution is a post solution")
    else:
        print(f"soundness: {len(report.violations)} VIOLATIONS")
        for v in report.violations[:10]:
            print(f"  {v!r}")
    if report.precision is not None:
        cmp_ = report.precision
        print(
            f"precision vs from-scratch: {cmp_.equal} equal, "
            f"{cmp_.better} better, {cmp_.worse} worse, "
            f"{cmp_.incomparable} incomparable "
            f"(of {cmp_.total} program points)"
        )
        if args.points:
            for fn, node in cmp_.better_points:
                print(f"  warm more precise at {fn} {node!r}")
    return 0 if report.sound else 2


def cmd_fig7(args) -> int:
    from repro.bench.harness import run_fig7
    from repro.bench.reporting import render_fig7

    result = run_fig7(names=args.names or None)
    print(render_fig7(result))
    return 0


def cmd_table1(args) -> int:
    from repro.bench.harness import run_table1
    from repro.bench.reporting import render_table1

    rows = run_table1(names=args.names or None)
    print(render_table1(rows))
    return 0


def _bench_matrix(args) -> int:
    from repro.batch import (
        DEFAULT_MATRIX_STRATEGIES,
        git_revision,
        matrix_programs,
        render_matrix,
        run_matrix,
        validate_matrix,
        write_matrix,
    )

    try:
        programs = matrix_programs(args.families or None, quick=args.quick)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not programs:
        print("error: the selected corpus is empty", file=sys.stderr)
        return 2
    strategies = args.strategies or list(DEFAULT_MATRIX_STRATEGIES)
    if args.list:
        from repro.batch.matrix import resolve_matrix_strategies

        columns, _ = resolve_matrix_strategies(
            strategies, args.baseline_strategy
        )
        for family, program, _source in programs:
            for spec in columns:
                print(f"{family}/{program}/{spec}")
        return 0

    revision = git_revision()
    doc = run_matrix(
        programs,
        strategies,
        baseline=args.baseline_strategy,
        quick=args.quick,
        revision=revision,
    )
    problems = validate_matrix(doc)
    if problems:  # pragma: no cover - internal schema drift
        print(
            f"internal fault: invalid document: {problems}", file=sys.stderr
        )
        return 4
    print(render_matrix(doc))
    out = args.out or f"MATRIX_{revision}.json"
    write_matrix(doc, out)
    print(f"wrote {out}")
    if args.update_baseline:
        write_matrix(doc, args.update_baseline)
        print(f"baseline refreshed: {args.update_baseline}")
    worst = 0 if doc["totals"]["failed"] == 0 else 1
    if args.compare:
        import json

        from repro.batch import compare_matrices, load_matrix

        try:
            baseline = load_matrix(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        report = compare_matrices(doc, baseline)
        print(report.render())
        if not report.ok:
            return 1
    return worst


def cmd_bench(args) -> int:
    import json

    from repro.batch import (
        compare_benches,
        corpus_jobs,
        git_revision,
        load_bench,
        run_bench,
        validate_bench,
        write_bench,
    )

    if args.matrix:
        return _bench_matrix(args)
    try:
        jobs = corpus_jobs(
            args.families or None, quick=args.quick, deadline=args.deadline
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.list:
        for job in jobs:
            print(job.id)
        return 0
    if not jobs:
        print("error: the selected corpus is empty", file=sys.stderr)
        return 2

    repeats = args.repeats
    if repeats is None:
        repeats = 2 if args.quick else 3
    revision = git_revision()
    doc = run_bench(
        jobs,
        repeats=repeats,
        workers=args.workers,
        quick=args.quick,
        revision=revision,
    )
    problems = validate_bench(doc)
    if problems:  # pragma: no cover - internal schema drift
        print(
            f"internal fault: invalid document: {problems}", file=sys.stderr
        )
        return 4

    totals = doc["totals"]
    print(
        f"bench: {totals['jobs']} jobs, {totals['ok']} ok, "
        f"{totals['failed']} failed, {totals['evaluations']} evaluations, "
        f"{totals['wall_time']:.2f}s (min-of-{repeats}, "
        f"workers={args.workers or 'auto'})"
    )
    for entry in doc["jobs"]:
        if entry["code"] != 0 and entry["status"] != "findings":
            print(
                f"  {entry['job']}: {entry['status']} (code {entry['code']})"
                f" {entry['error']}"
            )

    out = args.out or f"BENCH_{revision}.json"
    write_bench(doc, out)
    print(f"wrote {out}")
    if args.update_baseline:
        write_bench(doc, args.update_baseline)
        print(f"baseline refreshed: {args.update_baseline}")

    # ``findings`` is the expected outcome of the buggy check corpus, not
    # a benchmark failure; drift in the findings is what ``--compare``
    # gates on.
    worst = max(
        (
            entry["code"]
            for entry in doc["jobs"]
            if entry["status"] != "findings"
        ),
        default=0,
    )
    if args.compare:
        try:
            baseline = load_bench(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        report = compare_benches(
            doc,
            baseline,
            eval_threshold=args.eval_threshold / 100.0,
            time_threshold=args.time_threshold / 100.0,
        )
        print(report.render())
        if not report.ok:
            return 1
    return worst


# --------------------------------------------------------------------- #
# Service subcommands.                                                  #
# --------------------------------------------------------------------- #

def _service_client(args):
    """A connected-on-demand client, or ``None`` (after an error print)."""
    from repro.service import RetryPolicy, ServiceClient

    if args.socket is None and args.port is None:
        print(
            "error: need --socket PATH or --port PORT to reach the daemon",
            file=sys.stderr,
        )
        return None
    retries = getattr(args, "retries", None)
    retry = None if retries is None else RetryPolicy(attempts=max(1, retries))
    return ServiceClient(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        retry=retry,
    )


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service import AnalysisDaemon, ServiceConfig

    if args.socket is None and args.port is None:
        print(
            "error: serve needs --socket PATH or --port PORT (0: ephemeral)",
            file=sys.stderr,
        )
        return 2
    if args.shards:
        if args.socket is None:
            print(
                "error: --shards needs --socket PATH (the router's front "
                "socket; shards get sockets under the fleet directory)",
                file=sys.stderr,
            )
            return 2
        if args.supervise:
            print(
                "error: --shards already supervises every shard; drop "
                "--supervise",
                file=sys.stderr,
            )
            return 2
        from repro.fleet import FleetConfig, serve_fleet

        return serve_fleet(
            FleetConfig(
                socket_path=args.socket,
                shards=args.shards,
                workers=args.workers,
                run_dir=args.fleet_dir,
                shared_dir=args.shared_dir,
                health_interval=args.health_interval,
                max_restarts=args.max_restarts,
                default_deadline=args.deadline,
                cache_entries=args.cache_entries,
                queue_high=args.queue_high,
                read_timeout=args.read_timeout,
                log_path=args.log_file,
            )
        )
    if args.supervise:
        from repro.service.supervisor import RestartSupervisor, serve_command

        supervisor = RestartSupervisor(
            serve_command(args), max_restarts=args.max_restarts
        )
        return supervisor.run()
    config = ServiceConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port or 0,
        workers=args.workers,
        cache_entries=args.cache_entries,
        cache_ttl=args.cache_ttl,
        cache_path=args.cache_file,
        default_deadline=args.deadline,
        warm_ratio=args.warm_ratio,
        log_path=args.log_file,
        queue_high=args.queue_high,
        queue_low=args.queue_low,
        max_connections=args.max_connections,
        shed_retry_ms=args.shed_retry_ms,
        read_timeout=args.read_timeout,
        journal_path=args.journal_file,
        shared_dir=args.shared_dir,
    )
    daemon = AnalysisDaemon(config)

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, daemon.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-UNIX loops; Ctrl-C still raises KeyboardInterrupt
        await daemon.start()
        address = daemon.address
        if address[0] == "unix":
            print(f"listening on unix socket {address[1]}", flush=True)
            if daemon.stale_socket_removed:
                print(
                    "removed a stale socket left by a crashed predecessor",
                    flush=True,
                )
        else:
            print(f"listening on {address[1]}:{address[2]}", flush=True)
        if daemon.cache_loaded:
            print(
                f"cache index restored: {daemon.cache_loaded} entries",
                flush=True,
            )
        if daemon.journal.recovered:
            print(
                f"journal: recovered {len(daemon.journal.recovered)} "
                f"interrupted request(s)",
                flush=True,
            )
        await daemon.serve_until_shutdown()

    asyncio.run(_serve())
    print("daemon stopped")
    return 0


def cmd_submit(args) -> int:
    import json
    import os

    from repro.service import ServiceError

    client = _service_client(args)
    if client is None:
        return 2
    source = _read_source(args.file)
    request = {
        "solver": args.solver,
        "domain": args.domain,
        "context": args.context,
        "update_op": args.op,
        "widen_delay": args.widen_delay,
        "thresholds": args.thresholds,
        "max_evals": args.max_evals,
        "verify": args.verify,
        "label": args.label or os.path.basename(args.file),
    }
    if args.deadline is not None and args.deadline_ms is not None:
        print(
            "error: pass either --deadline or --deadline-ms, not both",
            file=sys.stderr,
        )
        return 2
    if args.deadline is not None:
        request["deadline"] = args.deadline
    if args.deadline_ms is not None:
        request["deadline_ms"] = args.deadline_ms
    if args.fresh:
        request["fresh"] = True
    try:
        with client:
            reply = client.solve(source, **request)
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    result = reply["result"]
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
    else:
        print(
            f"request {reply['request']}: cache {reply['cache']}, "
            f"status {result['status']} (code {result['code']})"
        )
        print(
            f"  solver {result['solver']}, domain {result['domain']}, "
            f"{reply['served_evaluations']} evaluations served, "
            f"{reply['wall_ms']:.1f} ms"
        )
        if reply.get("warm_donor"):
            print(
                f"  warm-started from {reply['warm_donor'][:12]} "
                f"({reply['dirty_nodes']} dirty nodes)"
            )
        if result.get("error"):
            print(f"  error: {result['error']}")
    return int(result["code"])


def cmd_service_status(args) -> int:
    import json

    from repro.service import ServiceError

    client = _service_client(args)
    if client is None:
        return 2
    try:
        with client:
            reply = client.status()
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    if reply.get("role") == "router" or "fleet" in reply:
        _print_fleet_status(reply)
        return 0
    requests = reply["requests"]
    cache = reply["cache"]
    print(
        f"daemon pid {reply['pid']}, up {reply['uptime_s']:.1f}s, "
        f"{reply['workers']} workers, {reply['in_flight']} in flight"
        f"{', draining' if reply['draining'] else ''}"
    )
    print(
        f"requests: {requests['total']} total -- {requests['hit']} hit, "
        f"{requests['warm']} warm, {requests['miss']} miss, "
        f"{requests['bypass']} bypass, {requests['coalesced']} coalesced, "
        f"{requests['errors']} errors"
    )
    shared = reply.get("shared")
    if shared:
        print(
            f"shared index: {shared['entries']} entries at {shared['root']}"
            f" -- {shared['hits']} hits, {shared['stores']} stores, "
            f"{requests.get('shared_hit', 0)} served, "
            f"{requests.get('shared_warm', 0)} cross-shard warm"
        )
    print(
        f"cache: {cache['entries']}/{cache['max_entries']} entries, "
        f"{cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['evictions']} evictions, {cache['expirations']} expired"
    )
    admission = reply.get("admission")
    if admission:
        print(
            f"admission: queue {admission['queue_depth']}/"
            f"{admission['queue_high']}"
            f"{' (shedding)' if admission['shedding'] else ''}, "
            f"{admission['shed']} shed, connections "
            f"{admission['connections']}/{admission['max_connections']}, "
            f"{admission['connections_refused']} refused"
        )
    journal = reply.get("journal")
    if journal and journal.get("enabled"):
        print(
            f"journal: {journal['open']} open, {journal['begun']} begun, "
            f"{journal['recovered']} recovered at start"
        )
    if reply.get("cache_loaded"):
        print(f"cache index restored at start: {reply['cache_loaded']} entries")
    return 0


def _print_fleet_status(reply: dict) -> None:
    """Human rendering of a router's aggregated fleet status."""
    fleet = reply.get("fleet", {})
    ring = fleet.get("ring", {})
    shared = fleet.get("shared", {})
    requests = reply.get("requests", {})
    router = reply.get("router", {})
    print(
        f"router pid {reply['pid']}, up {reply['uptime_s']:.1f}s, "
        f"{fleet.get('healthy', 0)}/{fleet.get('shards', 0)} shards "
        f"healthy, ring v{ring.get('version', 0)} "
        f"({ring.get('replicas', 0)} replicas/shard)"
        f"{', draining' if reply.get('draining') else ''}"
    )
    print(
        f"requests: {requests.get('total', 0)} total -- "
        f"{requests.get('hit', 0)} hit, {requests.get('warm', 0)} warm, "
        f"{requests.get('miss', 0)} miss, "
        f"{requests.get('errors', 0)} errors; router forwarded "
        f"{router.get('forwarded', 0)}, {router.get('failovers', 0)} "
        f"failovers, {router.get('unavailable', 0)} unavailable"
    )
    print(
        f"shared index: {shared.get('hits', 0)} hits, "
        f"{shared.get('stores', 0)} stores, "
        f"{requests.get('shared_hit', 0)} served, "
        f"{requests.get('shared_warm', 0)} cross-shard warm starts"
    )
    for row in fleet.get("per_shard", []):
        health = "healthy" if row.get("healthy") else "DOWN"
        counts = row.get("requests", {})
        line = (
            f"  {row['id']} [{health}]"
        )
        if row.get("pid") is not None:
            line += (
                f" pid {row['pid']} up {row['uptime_s']:.1f}s:"
                f" {counts.get('total', 0)} requests,"
                f" {counts.get('hit', 0)} hit"
                f" ({counts.get('shared_hit', 0)} shared),"
                f" {counts.get('warm', 0)} warm"
                f" ({counts.get('shared_warm', 0)} shared),"
                f" {counts.get('miss', 0)} miss,"
                f" {row.get('in_flight', 0)} in flight"
            )
        else:
            line += f" unreachable at {row.get('socket')}"
        print(line)


def cmd_service_shutdown(args) -> int:
    from repro.service import ServiceError

    client = _service_client(args)
    if client is None:
        return 2
    try:
        with client:
            reply = client.shutdown()
    except ServiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if reply.get("role") == "router":
        print("fleet router drained; shard daemons drain behind it")
    else:
        print(
            f"daemon drained; {reply['persisted_entries']} cache entries "
            "persisted"
        )
    return 0


# --------------------------------------------------------------------- #
# Argument parsing.                                                     #
# --------------------------------------------------------------------- #

def _add_analysis_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="mini-C source file")
    parser.add_argument(
        "--context",
        choices=["insensitive", "sign", "full"],
        default="insensitive",
        help="context policy for the interprocedural analysis",
    )
    parser.add_argument(
        "--solver",
        choices=["combined", "twophase"],
        default="combined",
        help="combined operator (paper) or classical two-phase baseline "
        "(shorthand; --op subsumes this)",
    )
    parser.add_argument(
        "--op",
        default=None,
        metavar="SPEC",
        help="combine-strategy spec driving the solve, e.g. 'warrow', "
        "'warrow:delay=2', 'widen', 'wpoint', 'twophase' "
        "(see `repro strategies`; default: the paper's combined operator)",
    )
    parser.add_argument(
        "--local-solver",
        default="slr+",
        help=(
            "registry name of the side-effecting local solver driving the "
            "analysis (see `repro solvers`)"
        ),
    )
    parser.add_argument(
        "--max-evals",
        type=int,
        default=10_000_000,
        help="evaluation budget (divergence guard)",
    )
    parser.add_argument(
        "--domain",
        choices=["interval", "interval-congruence", "sign", "congruence"],
        default="interval",
        help="numeric value domain",
    )
    parser.add_argument(
        "--thresholds",
        action="store_true",
        help="collect widening thresholds from the program's constants",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'How to Combine Widening and Narrowing for "
            "Non-monotonic Systems of Equations' (PLDI 2013)."
        ),
        epilog=(
            "exit codes:\n"
            "  0  success (for `repro check`: no findings)\n"
            "  1  verification incomplete (assertions with unknown verdict);\n"
            "     for `repro check`: diagnostics reported\n"
            "  2  input error (missing file, parse/semantic/runtime error,\n"
            "     violated assertion, unknown solver/strategy/rule)\n"
            "  3  solver divergence (evaluation budget or watchdog tripped)\n"
            "  4  internal fault (unexpected error; please report)\n"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a mini-C program")
    p_run.add_argument("file")
    p_run.add_argument("args", nargs="*", help="integer arguments for main")
    p_run.add_argument("--fuel", type=int, default=10_000_000)
    p_run.set_defaults(func=cmd_run)

    p_analyze = sub.add_parser("analyze", help="interval analysis report")
    _add_analysis_options(p_analyze)
    p_analyze.add_argument(
        "--points", action="store_true", help="print all program points"
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="check assert() statements")
    _add_analysis_options(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser(
        "check",
        help="run the bug-finding checkers over the analysis results "
        "(exit 0 clean, 1 findings, 2 input, 3 divergence, 4 internal)",
    )
    _add_analysis_options(p_check)
    p_check.add_argument(
        "--rules",
        action="append",
        default=None,
        metavar="RULE[,RULE...]",
        help="restrict to these rules (repeatable or comma-separated; "
        "default: all -- div-zero, array-bounds, dead-code, "
        "assert-violated, assert-redundant, uninit-read)",
    )
    check_out = p_check.add_mutually_exclusive_group()
    check_out.add_argument(
        "--json",
        action="store_true",
        help="emit the canonical repro-diagnostics/1 JSON document "
        "(byte-stable; the golden tests compare it exactly)",
    )
    check_out.add_argument(
        "--sarif-lite",
        action="store_true",
        help="emit a minimal SARIF 2.1.0 projection of the diagnostics",
    )
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser(
        "solve",
        help="analysis run under the supervision layer (watchdogs, "
        "checkpoints, escalation, fallback cascade)",
    )
    _add_analysis_options(p_solve)
    p_solve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-attempt wall-clock deadline in seconds",
    )
    p_solve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        help="take a resumable snapshot every N evaluations",
    )
    p_solve.add_argument(
        "--checkpoint-file",
        default=None,
        help="persist each snapshot crash-safely to this file",
    )
    p_solve.add_argument(
        "--fallback",
        action="append",
        default=None,
        metavar="SOLVER",
        help="fallback solver cascade, in order (repeatable)",
    )
    p_solve.add_argument(
        "--descent-cap",
        type=int,
        default=1,
        help="narrowing steps an escalated unknown may still take",
    )
    p_solve.add_argument(
        "--no-escalate",
        action="store_true",
        help="skip the escalation rungs; trip straight to the cascade",
    )
    p_solve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the independent post-solution verification gate",
    )
    p_solve.add_argument(
        "--chaos-rate",
        type=float,
        default=0.0,
        help="inject faults with this probability per evaluation",
    )
    p_solve.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the deterministic chaos stream",
    )
    p_solve.add_argument(
        "--chaos-kinds",
        default="raise",
        help="comma-separated fault kinds: raise, delay, perturb",
    )
    p_solve.add_argument(
        "--chaos-fail-at",
        type=int,
        default=None,
        metavar="K",
        help="schedule a raise fault on exactly the K-th evaluation",
    )
    p_solve.add_argument(
        "--stats",
        action="store_true",
        help="print solver statistics (evaluations, widen/narrow updates, "
        "direction switches)",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_incr = sub.add_parser(
        "incr",
        help="incremental re-analysis: solve, snapshot, diff, warm re-solve",
    )
    _add_analysis_options(p_incr)
    p_incr.add_argument(
        "edited", help="the edited version of the mini-C source file"
    )
    p_incr.add_argument(
        "--state-file",
        default=None,
        help="persist the solver snapshot as JSON and warm-start from the "
        "reloaded copy",
    )
    p_incr.add_argument(
        "--closure",
        choices=["transitive", "direct"],
        default="transitive",
        help="destabilize the full influence closure of the dirty unknowns "
        "or only the dirty unknowns themselves",
    )
    p_incr.add_argument(
        "--reset",
        choices=["none", "destabilized"],
        default="none",
        help="resume destabilized unknowns from their stale values (none, "
        "fewest re-evaluations) or their initial values (destabilized, "
        "from-scratch precision)",
    )
    p_incr.add_argument(
        "--no-compare",
        action="store_true",
        help="skip the from-scratch comparison run",
    )
    p_incr.add_argument(
        "--points",
        action="store_true",
        help="list program points where the warm solve is more precise",
    )
    p_incr.set_defaults(func=cmd_incr)

    p_dump = sub.add_parser("dump-cfg", help="print the control-flow graphs")
    p_dump.add_argument("file")
    p_dump.set_defaults(func=cmd_dump_cfg)

    p_solvers = sub.add_parser(
        "solvers", help="list the registered solvers and their capabilities"
    )
    p_solvers.add_argument(
        "--json",
        action="store_true",
        help="machine-readable capability listing instead of the table",
    )
    p_solvers.set_defaults(func=cmd_solvers)

    p_strategies = sub.add_parser(
        "strategies",
        help="list the registered combine strategies and their specs",
    )
    p_strategies.add_argument(
        "--json",
        action="store_true",
        help="machine-readable strategy listing instead of the table",
    )
    p_strategies.set_defaults(func=cmd_strategies)

    p_fig7 = sub.add_parser("fig7", help="regenerate Figure 7")
    p_fig7.add_argument("names", nargs="*", help="benchmark subset")
    p_fig7.set_defaults(func=cmd_fig7)

    p_table1 = sub.add_parser("table1", help="regenerate Table 1")
    p_table1.add_argument("names", nargs="*", help="program subset")
    p_table1.set_defaults(func=cmd_table1)

    p_bench = sub.add_parser(
        "bench",
        help="solve the benchmark corpus and gate against a baseline",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="the CI subset (smallest programs per family)",
    )
    p_bench.add_argument(
        "--families",
        action="append",
        metavar="FAMILY",
        help="restrict to a workload family (repeatable): "
        "examples, buggy, wcet, fig7, table1",
    )
    p_bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker process count (default: CPU count, capped at 8)",
    )
    p_bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="rounds for min-of-N timing (default: 2 quick, 3 full)",
    )
    p_bench.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock deadline (watchdog-enforced)",
    )
    p_bench.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="result document path (default: BENCH_<rev>.json)",
    )
    p_bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline document; exit 1 on regression "
        "(with --matrix: gate the precision point counts instead)",
    )
    p_bench.add_argument(
        "--eval-threshold",
        type=float,
        default=15.0,
        metavar="PCT",
        help="allowed RHS-evaluation growth over baseline (default 15%%)",
    )
    p_bench.add_argument(
        "--time-threshold",
        type=float,
        default=30.0,
        metavar="PCT",
        help="allowed total wall-time growth over baseline (default 30%%)",
    )
    p_bench.add_argument(
        "--update-baseline",
        default=None,
        metavar="PATH",
        help="also write the document to PATH (baseline refresh)",
    )
    p_bench.add_argument(
        "--list",
        action="store_true",
        help="print the selected job ids and exit",
    )
    p_bench.add_argument(
        "--matrix",
        action="store_true",
        help="precision x cost strategy matrix: solve every corpus "
        "program under every --strategies spec and compare each "
        "solution point-by-point against --baseline-strategy",
    )
    p_bench.add_argument(
        "--strategies",
        action="append",
        default=None,
        metavar="SPEC",
        help="matrix strategy column (repeatable; default: widen, "
        "warrow, twophase -- the Fig. 7 comparison)",
    )
    p_bench.add_argument(
        "--baseline-strategy",
        default="widen",
        metavar="SPEC",
        help="strategy the matrix precision counts compare against "
        "(default: widen, the paper's baseline)",
    )
    p_bench.set_defaults(func=cmd_bench)

    def _add_connection(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--socket",
            default=None,
            metavar="PATH",
            help="daemon UNIX socket path (wins over --host/--port)",
        )
        p.add_argument(
            "--host", default="127.0.0.1", help="daemon TCP host"
        )
        p.add_argument(
            "--port", type=int, default=None, help="daemon TCP port"
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent analysis daemon (content-addressed "
        "result cache, warm-start scheduling, graceful drain)",
    )
    _add_connection(p_serve)
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="maximum concurrently executing solve requests",
    )
    p_serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="LRU bound of the result cache",
    )
    p_serve.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="result time-to-live (default: no expiry)",
    )
    p_serve.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="persist the cache index here on drain; restore it on start",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (requests may override)",
    )
    p_serve.add_argument(
        "--warm-ratio",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="warm-start only when at most this fraction of nodes changed",
    )
    p_serve.add_argument(
        "--log-file",
        default=None,
        metavar="PATH",
        help="append one JSON record per request to this file",
    )
    p_serve.add_argument(
        "--queue-high",
        type=int,
        default=32,
        metavar="N",
        help="shed new work once this many requests are pending",
    )
    p_serve.add_argument(
        "--queue-low",
        type=int,
        default=None,
        metavar="N",
        help="stop shedding once pending drops to this (default: half "
        "of --queue-high)",
    )
    p_serve.add_argument(
        "--max-connections",
        type=int,
        default=64,
        metavar="N",
        help="refuse connections beyond this many concurrent clients",
    )
    p_serve.add_argument(
        "--shed-retry-ms",
        type=int,
        default=250,
        metavar="MS",
        help="base retry-after hint attached to overloaded replies",
    )
    p_serve.add_argument(
        "--read-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-connection read deadline (default: wait forever)",
    )
    p_serve.add_argument(
        "--journal-file",
        default=None,
        metavar="PATH",
        help="crash-safe in-flight journal; interrupted requests are "
        "replayed on restart",
    )
    p_serve.add_argument(
        "--supervise",
        action="store_true",
        help="run the daemon as a supervised child process, respawning "
        "it after crashes with bounded restart backoff",
    )
    p_serve.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        metavar="N",
        help="consecutive crashes tolerated under --supervise (and per "
        "shard under --shards)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run a sharded fleet: N supervised daemon processes behind "
        "a consistent-hash router on --socket (0: one plain daemon)",
    )
    p_serve.add_argument(
        "--shared-dir",
        default=None,
        metavar="DIR",
        help="fleet shared result + warm-donor index directory (single "
        "daemon: publish/consume it too; --shards default: "
        "<run-dir>/shared)",
    )
    p_serve.add_argument(
        "--fleet-dir",
        default=None,
        metavar="DIR",
        help="fleet runtime directory for shard sockets, journals and "
        "logs (default: <socket>.fleet)",
    )
    p_serve.add_argument(
        "--health-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="router health-probe cadence against the shards",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a program to a running analysis daemon"
    )
    p_submit.add_argument("file", help="mini-C source file")
    _add_connection(p_submit)
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="client I/O timeout in seconds",
    )
    p_submit.add_argument(
        "--solver",
        default="slr+",
        help="registry name of the side-effecting local solver",
    )
    p_submit.add_argument(
        "--domain",
        choices=["interval", "interval-congruence", "sign", "congruence"],
        default="interval",
        help="numeric value domain",
    )
    p_submit.add_argument(
        "--context",
        choices=["insensitive", "sign", "full"],
        default="insensitive",
        help="context policy for the interprocedural analysis",
    )
    p_submit.add_argument(
        "--op",
        default="warrow",
        metavar="SPEC",
        help="combine-strategy spec for the update operator, e.g. "
        "'warrow', 'warrow:delay=2', 'widen' (see `repro strategies`; "
        "the daemon only accepts solve-ready combine strategies)",
    )
    p_submit.add_argument(
        "--widen-delay",
        type=int,
        default=1,
        help="delayed-widening threshold of the update operator",
    )
    p_submit.add_argument(
        "--thresholds",
        action="store_true",
        help="collect widening thresholds from the program's constants",
    )
    p_submit.add_argument(
        "--max-evals",
        type=int,
        default=5_000_000,
        help="evaluation budget (divergence guard)",
    )
    p_submit.add_argument(
        "--verify",
        action="store_true",
        help="also check assert() statements",
    )
    p_submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request wall-clock deadline",
    )
    p_submit.add_argument(
        "--deadline-ms",
        type=int,
        default=None,
        metavar="MS",
        help="per-request wall-clock deadline in milliseconds "
        "(alternative to --deadline)",
    )
    p_submit.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="client attempts for transient failures (connect refused, "
        "reset, overloaded; default: 3)",
    )
    p_submit.add_argument(
        "--fresh",
        action="store_true",
        help="bypass the result cache and force a fresh solve",
    )
    p_submit.add_argument(
        "--label",
        default=None,
        help="request label for logs (default: the file name)",
    )
    p_submit.add_argument(
        "--json",
        action="store_true",
        help="print the daemon's full JSON reply",
    )
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status", help="query a running daemon's counters and cache stats"
    )
    _add_connection(p_status)
    p_status.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="client I/O timeout in seconds",
    )
    p_status.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="client attempts for transient failures (default: 3)",
    )
    p_status.add_argument(
        "--json",
        action="store_true",
        help="print the daemon's full JSON reply",
    )
    p_status.set_defaults(func=cmd_service_status)

    p_shutdown = sub.add_parser(
        "shutdown",
        help="gracefully drain and stop a running daemon",
    )
    _add_connection(p_shutdown)
    p_shutdown.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="client I/O timeout in seconds (drain can take a while)",
    )
    p_shutdown.set_defaults(func=cmd_service_shutdown)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The exit code classifies the failure (also in ``repro --help``):
    ``2`` for input errors (missing files, malformed programs, unknown
    solvers, violated assertions), ``3`` for solver divergence (budget
    or watchdog), ``4`` for internal faults; ``1`` is reserved for
    incomplete verification.
    """
    from repro.checkers import UnknownRuleError
    from repro.lang import LexError, ParseError, SemanticError
    from repro.lang.interp import ExecutionError
    from repro.solvers import DivergenceError
    from repro.solvers.registry import (
        SolverCapabilityError,
        UnknownSolverError,
    )
    from repro.strategies import SpecError, UnknownStrategyError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print(f"error: {err.filename}: no such file", file=sys.stderr)
        return 2
    except (LexError, ParseError, SemanticError) as err:
        print(f"error: {args.file}: {err}", file=sys.stderr)
        return 2
    except ExecutionError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"error: solver diverged: {err}", file=sys.stderr)
        return 3
    except (
        UnknownSolverError,
        SolverCapabilityError,
        UnknownStrategyError,
        SpecError,
        UnknownRuleError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - defensive catch-all
        print(f"internal fault: {err!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
