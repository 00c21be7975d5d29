"""The shared solver-engine core.

Every solver of the paper's zoo (RR, W, SRR, SW, RLD, SLR, SLR+, plus the
baselines) performs the same bookkeeping around its characteristic
iteration strategy: a mapping ``sigma``, the encountered domain, priority
keys, influence sets, a stability set, an evaluation budget, and
instrumentation counters.  :class:`SolverEngine` owns all of that state;
the ``solve_*`` functions are thin strategies that decide *in which
order* the engine's primitives are invoked.

The primitives are deliberately fine-grained so that each strategy keeps
its exact paper semantics:

* :meth:`charge` / :meth:`eval_rhs` -- one budgeted (and optionally
  memoized) right-hand-side evaluation, reported as ``on_eval``;
* :meth:`commit` -- store a combined value if it changed, bump the
  unknown's version, reported as ``on_update``;
* :meth:`init_unknown` + the eval factories -- the shared local-solver
  initialisation and lookup closures (previously copy-pasted across
  ``slr``/``slr_side``/``rld``/``td``);
* :meth:`destabilize` / :meth:`destabilize_ordered` -- the two influence
  disciplines (SLR's set-with-self vs RLD/TD's insertion-ordered),
  reported as ``on_destabilize``;
* :meth:`make_queue` -- a priority worklist that reports its high-water
  mark as ``on_queue``.

Instrumentation is pluggable: pass :class:`SolverObserver` instances via
``observers`` and they receive every event next to the always-installed
:class:`StatsObserver` (which is what keeps the classic ``SolverStats``
counters flowing).  Without extra observers the engine updates those
counters itself on the per-evaluation path, with the same counts.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.solvers.combine import Combine
from repro.solvers.engine.events import EventBus, SolverObserver, StatsObserver
from repro.solvers.engine.memo import MISS, MemoCache
from repro.solvers.engine.worklist import ObservedWorklist
from repro.solvers.stats import DivergenceError, SolverStats


class SolverEngine:
    """State, budget, instrumentation and caching for one solver run."""

    def __init__(
        self,
        system,
        op: Optional[Combine] = None,
        *,
        max_evals: Optional[int] = None,
        observers: Iterable[SolverObserver] = (),
        memoize: bool = False,
    ) -> None:
        """Prepare a run of ``system`` under update operator ``op``.

        :param system: a pure or side-effecting equation system.
        :param op: the binary update operator; ``None`` for drivers that
            apply operators themselves (Kleene, two-phase).
        :param max_evals: evaluation budget; exceeding it raises
            :class:`~repro.solvers.stats.DivergenceError`.
        :param observers: extra event-bus observers for this run.
        :param memoize: enable the RHS memoization cache.
        """
        self.system = system
        # A *fresh* operator instance per run: stateful operators handed
        # to several engines (e.g. by the service's thread pool) must
        # never share their per-unknown maps.  Solvers therefore read
        # the operator back from ``engine.op`` instead of closing over
        # the argument.
        self.op = op.fresh() if op is not None else None
        self.lattice = system.lattice
        #: The mapping under construction.
        self.sigma: dict = {}
        #: Encountered domain of a local solve (unused by global solvers).
        self.dom: set = set()
        #: Influence sets; SLR-style values are sets, RLD/TD-style values
        #: are insertion-ordered dicts.
        self.infl: dict = {}
        #: Priority keys of a local solve (later-discovered = smaller).
        self.keys: dict = {}
        #: Unknowns currently considered stable.
        self.stable: set = set()
        #: Per-unknown update versions (the memoization fingerprint).
        self.versions: dict = {}
        #: Strategy-private resumable state (e.g. SLR+ contribution maps),
        #: registered by solvers so mid-run snapshots can capture it.
        self.aux: dict = {}
        self._counter = 0
        self._inflight: list = []
        #: Last committed direction per unknown (True = shrink); feeds the
        #: cheap widen/narrow counters on :class:`SolverStats`.
        self._direction: dict = {}
        stats_observer = StatsObserver()
        #: The classic counters, accumulated by the built-in observer.
        self.stats: SolverStats = stats_observer.stats
        # The stats observer must run first so the budget check below
        # always sees an up-to-date evaluation count.
        self.bus = EventBus([stats_observer, *observers])
        #: Whether any observer besides the stats one listens.  If not,
        #: the engine updates the counters itself instead of emitting
        #: events nobody else receives; the counts are the same.
        self._observed = len(self.bus.observers) > 1
        self.max_evals = max_evals
        self.memo: Optional[MemoCache] = MemoCache() if memoize else None
        if self.op is not None:
            if self.op.spec is not None:
                self.stats.strategy = str(self.op.spec)
        self.bus.emit_start(self)

    # ----------------------------------------------------------------- #
    # State initialisation.                                             #
    # ----------------------------------------------------------------- #

    def seed_finite(self, unknowns: Iterable[Hashable]) -> dict:
        """Initialise ``sigma`` over a statically known unknown set."""
        for x in unknowns:
            self.sigma[x] = self.system.init(x)
        self.stats.unknowns = len(self.sigma)
        return self.sigma

    def init_unknown(self, y: Hashable) -> None:
        """First encounter of ``y`` in a structured local solve.

        Registers ``y`` in the domain with a priority key strictly smaller
        than all earlier keys, a self-containing influence set (the
        non-idempotence precaution) and its initial value.
        """
        self.dom.add(y)
        self.keys[y] = -self._counter
        self._counter += 1
        self.infl[y] = {y}
        self.sigma[y] = self.system.init(y)

    def value_of(self, y: Hashable):
        """Current value of ``y``, lazily initialised (RLD/TD discipline)."""
        if y not in self.sigma:
            self.sigma[y] = self.system.init(y)
        return self.sigma[y]

    # ----------------------------------------------------------------- #
    # Budgeted evaluation.                                              #
    # ----------------------------------------------------------------- #

    @property
    def inflight(self) -> tuple:
        """Unknowns whose right-hand sides are being evaluated right now.

        Innermost last.  A mid-run snapshot must not consider these
        stable: their current evaluation has not committed yet.
        """
        return tuple(self._inflight)

    def charge(self, x: Hashable) -> None:
        """Count one evaluation of ``x``; raise on budget exhaustion."""
        if self._observed:
            self.bus.emit_eval(x)
        else:
            self.stats.count_eval(x)
        if self.max_evals is not None and self.stats.evaluations > self.max_evals:
            raise DivergenceError(
                f"exceeded {self.max_evals} right-hand-side evaluations "
                f"(likely divergence)",
                dict(self.sigma),
                self.stats,
                unknown=x,
            )

    def eval_rhs(self, x: Hashable, get, rhs=None):
        """One budgeted evaluation of ``f_x`` against the ``get`` callback.

        With memoization enabled, the evaluation is skipped when no
        unknown read by the previous evaluation of ``x`` has changed
        version since; cache consultations are reported as ``on_memo``
        events.  A skipped evaluation is *not* charged against the
        budget (it performs no work).
        """
        if rhs is None:
            rhs = self.system.rhs(x)
        memo = self.memo
        if memo is None:
            # In-flight before charging: observers of ``on_eval`` (e.g. a
            # mid-run checkpointer) must already see ``x`` as uncommitted.
            self._inflight.append(x)
            try:
                self.charge(x)
                return rhs(get)
            finally:
                self._inflight.pop()
        cached = memo.lookup(x, self.versions)
        if cached is not MISS:
            self.bus.emit_memo(x, True)
            return cached
        self.bus.emit_memo(x, False)
        reads: dict = {}
        versions = self.versions

        def traced_get(y):
            value = get(y)
            # Record the version *after* the lookup: for local solvers the
            # lookup itself may solve (and update) ``y``.
            reads[y] = versions.get(y, 0)
            return value

        self._inflight.append(x)
        try:
            self.charge(x)
            value = rhs(traced_get)
        finally:
            self._inflight.pop()
        memo.store(x, reads, value)
        return value

    # ----------------------------------------------------------------- #
    # Updates and destabilisation.                                      #
    # ----------------------------------------------------------------- #

    def commit(self, x: Hashable, new) -> bool:
        """Store ``new`` for ``x`` if it differs; report the change.

        Besides the ``on_update`` event, the commit classifies the move's
        direction (one ``leq`` per *changed* value, which is rare next to
        evaluations): shrinks count as narrowing steps, everything else
        as widening steps, and per-unknown reversals accumulate into
        ``stats.direction_switches`` -- the cheap always-on counters the
        batch/bench layer reports per job.

        :returns: whether the value changed.
        """
        old = self.sigma[x]
        if self.lattice.equal(old, new):
            return False
        self.sigma[x] = new
        self.versions[x] = self.versions.get(x, 0) + 1
        shrank = self.lattice.leq(new, old)
        stats = self.stats
        if shrank:
            stats.narrow_updates += 1
        else:
            stats.widen_updates += 1
        previous = self._direction.get(x)
        if previous is not None and previous is not shrank:
            stats.direction_switches += 1
        self._direction[x] = shrank
        if self._observed:
            self.bus.emit_update(x, old, new)
        else:
            stats.count_update()
        return True

    def destabilize(self, x: Hashable, queue) -> None:
        """SLR-style destabilisation after a change of ``x``.

        Enqueues every influenced unknown (including ``x`` itself), resets
        ``infl[x]`` to the self-set, and drops the stability of the
        influenced unknowns.
        """
        work = self.infl[x]
        for y in work:
            queue.add(y)
        self.infl[x] = {x}
        self.stable.difference_update(work)
        if self._observed:
            self.bus.emit_destabilize(x, work)

    def destabilize_ordered(self, x: Hashable) -> list:
        """RLD-style destabilisation: reset ordered ``infl[x]``.

        :returns: the destabilised unknowns in dependency-recording order
            (the caller re-solves them).
        """
        work = list(self.infl.get(x, ()))
        self.infl[x] = {}
        self.stable.difference_update(work)
        self.bus.emit_destabilize(x, work)
        return work

    def restart_region(self, x: Hashable, queue=None) -> set:
        """Restarting-solver primitive: discard the region over-widened by ``x``.

        On a downward reversal at a widening point ``x``, every unknown
        that (transitively) read ``x`` was computed against the larger,
        over-widened value and may hold a finite-but-too-large bound that
        plain narrowing can never improve.  This primitive computes the
        dependent region -- the transitive closure of ``x`` under the
        recorded ``infl`` edges plus any SLR+ contribution edges
        registered in ``aux``, i.e. exactly the incremental layer's
        destabilisation closure
        (:func:`repro.incremental.warmstart.influence_closure`) -- and

        * resets every member except ``x`` itself to its initial value
          (``x`` keeps the freshly narrowed value that triggered the
          restart),
        * bumps the reset members' versions so memoized readers re-read,
        * clears their direction history (it described discarded values),
        * drops stale contributions whose origin lies in the region
          (their reset targets re-join them from scratch; ``x``'s own
          contributions are current -- they were recorded by the
          evaluation that produced the reversal -- and are kept),
        * drops stability and, when ``queue`` is given, enqueues the
          region.

        Soundness mirrors ``reset='destabilized'`` warm starts: the
        transitive closure guarantees every reader of a reset unknown is
        itself reset, so no retained value was computed from a discarded
        one.

        :returns: the restarted region (including ``x``).
        """
        # Deferred import: repro.incremental imports the solver package,
        # so the engine must not import it at module level.
        from repro.incremental.warmstart import influence_closure

        contribs = self.aux.get("contribs")
        region = influence_closure(
            {x}, self.infl, contribs if contribs is not None else ()
        )
        for y in region:
            if y != x:
                self.sigma[y] = self.system.init(y)
                self.versions[y] = self.versions.get(y, 0) + 1
                self._direction.pop(y, None)
            if queue is not None:
                queue.add(y)
        if contribs is not None:
            contributors = self.aux.get("contributors", {})
            for pair in [p for p in contribs if p[0] in region and p[0] != x]:
                del contribs[pair]
                contributors.get(pair[1], set()).discard(pair[0])
        self.stable.difference_update(region)
        self.bus.emit_restart(x, region)
        return region

    # ----------------------------------------------------------------- #
    # Shared local-solver lookup closures.                              #
    # ----------------------------------------------------------------- #

    def fresh_solving_eval(self, x: Hashable, solve):
        """SLR/SLR+ ``eval x``: recursively solve only *fresh* unknowns.

        Previously encountered unknowns are read as-is, which is what
        makes one right-hand-side evaluation atomic (Theorem 3's
        prerequisite).
        """

        def eval_(y):
            if y not in self.dom:
                self.init_unknown(y)
                solve(y)
            self.infl[y].add(x)
            return self.sigma[y]

        return eval_

    def demand_solving_eval(self, x: Hashable, solve):
        """RLD/TD ``eval x``: recursively solve *every* looked-up unknown.

        Dependencies are recorded in insertion-ordered dicts so that
        destabilised unknowns are re-solved deterministically.
        """

        def eval_(y):
            solve(y)
            self.infl.setdefault(y, {})[x] = None
            return self.value_of(y)

        return eval_

    # ----------------------------------------------------------------- #
    # Queues and completion.                                            #
    # ----------------------------------------------------------------- #

    def make_queue(self, key_of) -> ObservedWorklist:
        """A priority worklist whose growth is reported as ``on_queue``."""
        return ObservedWorklist(
            key_of, self.bus, None if self._observed else self.stats
        )

    def observe_queue(self, size: int) -> None:
        """Report the size of a solver-managed (non-priority) worklist."""
        self.bus.emit_queue(size)

    def finish(self, unknowns: Optional[int] = None) -> SolverStats:
        """Finalise the run: fix the unknown count, emit ``on_done``."""
        if unknowns is not None:
            self.stats.unknowns = unknowns
        elif self.dom:
            self.stats.unknowns = len(self.dom)
        else:
            self.stats.unknowns = len(self.sigma)
        self.bus.emit_done(self)
        return self.stats
