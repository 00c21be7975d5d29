"""The shared solver-engine core.

Every solver of the paper's zoo (RR, W, SRR, SW, RLD, SLR, SLR+, plus the
baselines) performs the same bookkeeping around its characteristic
iteration strategy: per-unknown state, an evaluation budget, and
instrumentation counters.  :class:`SolverEngine` owns all of that state,
one :class:`Record` per encountered unknown; the ``solve_*`` functions
are thin strategies that decide *in which order* the engine's primitives
are invoked.

The primitives are deliberately fine-grained so that each strategy keeps
its exact paper semantics:

* :meth:`eval_rhs` -- one budgeted (and optionally memoized)
  right-hand-side evaluation, reported as ``on_eval``;
* :meth:`commit` -- store a combined value if it changed, bump the
  unknown's version, reported as ``on_update``;
* :meth:`init_unknown` + the eval factories -- the shared local-solver
  initialisation and lookup closures;
* :meth:`destabilize`, :meth:`destabilize_ordered` and
  :meth:`destabilize_transitive` -- the influence disciplines of SLR
  (self-containing sets), RLD (insertion order) and TD (recursive),
  reported as ``on_destabilize``;
* :meth:`enqueue` / :meth:`dequeue` -- the priority queue of a
  structured local solve (:meth:`make_queue`: a worklist of unknowns for
  the global solvers), reporting growth as ``on_queue``.

Solvers hold records, which hash by identity: an unknown is hashed once
per lookup, nowhere else.  Readers outside the solvers (snapshots, the
consistency checker, watchdogs, the memo cache) see read-only
``unknown -> ...`` views: ``sigma``, ``infl``, ``keys``, ``dom``,
``stable`` and ``versions``.

Observers passed via ``observers`` receive every event; the engine keeps
the ``SolverStats`` counters itself, so an unobserved run emits nothing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.solvers.combine import Combine
from repro.solvers.engine.events import EventBus, SolverObserver
from repro.solvers.engine.memo import MISS, MemoCache
from repro.solvers.engine.worklist import ObservedWorklist
from repro.solvers.stats import DivergenceError, SolverStats


@dataclass(eq=False, repr=False, slots=True)
class Record:
    """Everything one solver run keeps about one encountered unknown.

    Records hash by identity.  The fields from ``get`` on belong to the
    SLR loop (:mod:`repro.solvers.slr_side`).
    """

    x: Hashable
    value: Any
    #: Priority key in a structured local solve (``None`` outside its domain).
    key: Optional[int] = None
    #: The records that read this one, in recording order: ``{record: None}``.
    infl: Optional[dict] = None
    stable: bool = False
    queued: bool = False
    #: Nesting depth of its in-flight evaluations.
    evaluating: int = 0
    #: Bumped by every committed change: the memo fingerprint.
    version: int = 0
    #: Direction of the last change (``True`` = shrank).
    direction: Optional[bool] = None
    evals: int = 0
    #: The lookup and side-effect callbacks and the right-hand side, built
    #: on the first evaluation.
    get: Optional[Callable] = None
    side: Optional[Callable] = None
    rhs: Optional[Callable] = None
    #: The targets of the current evaluation's side effects.
    effected: Optional[set] = None
    #: The latest side effect of each origin record (``None``: no
    #: contributor set).
    contribs: Optional[dict] = None
    wpoint: bool = False
    restarted: bool = False
    accumulated: bool = False


def _always(record: Record) -> bool:
    return True


class FieldView(Mapping):
    """A read-only ``unknown -> field`` map over the records that ``has``.

    Its ``keys()`` is the matching read-only set of unknowns.
    """

    __slots__ = ("_records", "_field", "_has")

    def __init__(self, records: dict, field, has=_always) -> None:
        self._records = records
        self._field = field
        self._has = has

    def __getitem__(self, x):
        record = self._records[x]
        if not self._has(record):
            raise KeyError(x)
        return self._field(record)

    def __iter__(self):
        has = self._has
        return (x for x, r in self._records.items() if has(r))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def copy(self) -> dict:
        """A plain dict of the current entries."""
        field, has = self._field, self._has
        return {x: field(r) for x, r in self._records.items() if has(r)}


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
        :param observers: event-bus observers for this run.
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
        #: The one per-unknown storage: ``unknown -> Record``, in the
        #: order the unknowns were encountered.
        self.records: dict = {}
        records = self.records
        #: Read-only views for readers outside the solvers.
        self.sigma = FieldView(records, attrgetter("value"))
        self.infl = FieldView(
            records,
            lambda r: {y.x for y in r.infl},
            lambda r: r.infl is not None,
        )
        self.keys = FieldView(records, attrgetter("key"), lambda r: r.key is not None)
        self.versions = FieldView(
            records, attrgetter("version"), lambda r: r.version > 0
        )
        #: The encountered domain of a local solve (the keyed records).
        self.dom = self.keys.keys()
        self.stable = FieldView(records, _always, attrgetter("stable")).keys()
        #: The priority queue of a structured local solve: a heap of
        #: ``(key, record)``, one entry per queued record.  Keys are
        #: unique, so records are never compared.
        self.heap: list = []
        self._counter = 0
        self._stats = SolverStats()
        self.bus = EventBus(observers)
        #: Whether any observer listens; if not, no event is emitted.
        self._observed = bool(self.bus.observers)
        self.max_evals = max_evals
        self.memo: Optional[MemoCache] = MemoCache() if memoize else None
        if self.op is not None and self.op.spec is not None:
            self._stats.strategy = str(self.op.spec)
        self.bus.emit_start(self)

    @property
    def stats(self) -> SolverStats:
        """The run's counters, ``per_unknown`` and the memo counts filled
        from the records and the cache."""
        stats = self._stats
        stats.per_unknown = {x: r.evals for x, r in self.records.items() if r.evals}
        if self.memo is not None:
            stats.memo_hits, stats.memo_misses = self.memo.hits, self.memo.misses
        return stats

    # ----------------------------------------------------------------- #
    # State initialisation.                                             #
    # ----------------------------------------------------------------- #

    def load(self, x: Hashable, value) -> Record:
        """A new record for ``x`` holding ``value`` (seeding, warm starts)."""
        record = self.records[x] = Record(x, value)
        return record

    def seed_finite(self, unknowns: Iterable[Hashable]) -> list:
        """Initialise records over a statically known unknown set.

        :returns: the unknowns' records, in the order given.
        """
        xs = list(unknowns)
        for x in xs:
            self.load(x, self.system.init(x))
        self._stats.unknowns = len(self.records)
        return [self.records[x] for x in xs]

    def record(self, y: Hashable) -> Record:
        """``y``'s record, lazily initialised (RLD/TD discipline)."""
        return self.records.get(y) or self.load(y, self.system.init(y))

    def value_of(self, y: Hashable):
        """Current value of ``y``, lazily initialised."""
        return self.record(y).value

    def init_unknown(self, y: Hashable) -> Record:
        """First encounter of ``y`` in a structured local solve.

        Gives ``y`` a priority key strictly smaller than all earlier keys,
        a self-containing influence set (the non-idempotence precaution)
        and its initial value.
        """
        record = self.load(y, self.system.init(y))
        record.key = -self._counter
        self._counter += 1
        record.infl = {record: None}
        return record

    # ----------------------------------------------------------------- #
    # Budgeted evaluation.                                              #
    # ----------------------------------------------------------------- #

    @property
    def inflight(self) -> tuple:
        """Unknowns whose right-hand sides are being evaluated right now,
        once per nested evaluation.  A mid-run snapshot must not consider
        these stable: their current evaluation has not committed yet."""
        return tuple(x for x, r in self.records.items() for _ in range(r.evaluating))

    def eval_rhs(self, record: Record, get, side=None):
        """One budgeted evaluation of ``record``'s right-hand side.

        The right-hand side is ``record.rhs`` or else the system's; it
        gets the ``get`` callback and, given one, the ``side`` callback.
        The evaluation is counted (``on_eval``) with the record already
        in flight, so an observer (e.g. a mid-run checkpointer) sees it as
        uncommitted, and raises on budget exhaustion.

        With memoization enabled, the evaluation is skipped when no
        unknown read by the previous evaluation has changed version
        since; cache consultations are reported as ``on_memo`` events.
        A skipped evaluation is *not* charged against the budget.
        """
        rhs = record.rhs or self.system.rhs(record.x)
        memo = self.memo
        if memo is not None:
            cached = memo.lookup(record.x, self.versions)
            if self._observed:
                self.bus.emit_memo(record.x, cached is not MISS)
            if cached is not MISS:
                return cached
            reads: dict = {}
            versions = self.versions
            plain_get = get

            def traced_get(y):
                value = plain_get(y)
                # Record the version *after* the lookup: for local solvers
                # the lookup itself may solve (and update) ``y``.
                reads[y] = versions.get(y, 0)
                return value

            get = traced_get
        record.evaluating += 1
        try:
            record.evals += 1
            stats = self._stats
            stats.evaluations += 1
            if self._observed:
                self.bus.emit_eval(record.x)
            if self.max_evals is not None and stats.evaluations > self.max_evals:
                raise DivergenceError(
                    f"exceeded {self.max_evals} right-hand-side evaluations "
                    f"(likely divergence)",
                    self.sigma.copy(),
                    self.stats,
                    unknown=record.x,
                )
            value = rhs(get) if side is None else rhs(get, side)
        finally:
            record.evaluating -= 1
        if memo is not None:
            memo.store(record.x, reads, value)
        return value

    # ----------------------------------------------------------------- #
    # Updates and destabilisation.                                      #
    # ----------------------------------------------------------------- #

    def commit(self, record: Record, new) -> bool:
        """Store ``new`` for ``record`` if it differs; report the change.

        A change is classified by one ``leq``: shrinks count as narrowing
        steps, everything else as widening steps, and per-unknown
        reversals as ``stats.direction_switches``.

        :returns: whether the value changed.
        """
        old = record.value
        lattice = self.lattice
        if lattice.equal(old, new):
            return False
        record.value = new
        record.version += 1
        shrank = lattice.leq(new, old)
        stats = self._stats
        stats.updates += 1
        if shrank:
            stats.narrow_updates += 1
        else:
            stats.widen_updates += 1
        previous = record.direction
        if previous is not None and previous is not shrank:
            stats.direction_switches += 1
        record.direction = shrank
        if self._observed:
            self.bus.emit_update(record.x, old, new)
        return True

    def enqueue(self, records: Iterable[Record]) -> None:
        """Add each of ``records`` to the priority queue unless queued."""
        heap, stats = self.heap, self._stats
        for record in records:
            if record.queued:
                continue
            record.queued = True
            heappush(heap, (record.key, record))
            if len(heap) > stats.max_queue:
                stats.max_queue = len(heap)
            if self._observed:
                self.bus.emit_queue(len(heap))

    def dequeue(self) -> Record:
        """Remove and return the queued record with the least key."""
        record = heappop(self.heap)[1]
        record.queued = False
        return record

    def destabilize(self, record: Record) -> None:
        """SLR-style destabilisation after a change of ``record``.

        Enqueues every influenced unknown (including ``record`` itself),
        resets its influence to the self-set, and drops the stability of
        the influenced unknowns.
        """
        work = record.infl
        self.enqueue(work)
        record.infl = {record: None}
        for y in work:
            y.stable = False
        if self._observed:
            self.bus.emit_destabilize(record.x, {y.x for y in work})

    def destabilize_ordered(self, record: Record) -> list:
        """RLD-style destabilisation: reset ``record``'s ordered influence.

        :returns: the destabilised records in dependency-recording order
            (the caller re-solves them).
        """
        work = list(record.infl or ())
        record.infl = {}
        for y in work:
            y.stable = False
        if self._observed:
            self.bus.emit_destabilize(record.x, [y.x for y in work])
        return work

    def destabilize_transitive(self, record: Record) -> None:
        """TD-style destabilisation: reset ``record``'s ordered influence
        and, recursively, that of every stable unknown it influenced."""
        work = list(record.infl or ())
        record.infl = {}
        if self._observed:
            self.bus.emit_destabilize(record.x, [y.x for y in work])
        for y in work:
            if y.stable:
                y.stable = False
                self.destabilize_transitive(y)

    def contributions(self) -> tuple:
        """The SLR loop's ``(contribs, contributors)``, keyed by unknowns."""
        contribs: dict = {}
        contributors: dict = {}
        for x, record in self.records.items():
            if record.contribs is not None:
                contributors[x] = {origin.x for origin in record.contribs}
                for origin, d in record.contribs.items():
                    contribs[(origin.x, x)] = d
        return contribs, contributors

    def flagged(self, flag: str) -> set:
        """The unknowns whose records have ``flag`` (e.g. ``"wpoint"``) set."""
        return {x for x, r in self.records.items() if getattr(r, flag)}

    def drop_contributions(self, origins) -> None:
        """Forget every stored side effect whose origin is in ``origins``."""
        for record in self.records.values():
            contribs = record.contribs
            if contribs:
                for origin in [o for o in contribs if o in origins]:
                    del contribs[origin]

    def restart_region(self, record: Record, requeue: bool = False) -> set:
        """Restarting-solver primitive: discard the region over-widened by
        ``record``.

        On a downward reversal at a widening point, every unknown that
        (transitively) read it was computed against the larger,
        over-widened value and may hold a finite-but-too-large bound that
        plain narrowing can never improve.  The region is the incremental
        layer's destabilisation closure
        (:func:`repro.incremental.warmstart.influence_closure`) under
        influence and SLR+ contribution edges.  Every member except
        ``record`` (which keeps its freshly narrowed value) is reset to
        its initial value, with a bumped version and no direction
        history; contributions from reset origins are dropped
        (``record``'s own are current); the region loses stability and,
        with ``requeue``, is enqueued.  Soundness mirrors
        ``reset='destabilized'`` warm starts: every reader of a reset
        unknown is itself reset.

        :returns: the restarted region's records (including ``record``).
        """
        # Deferred import: repro.incremental imports the solver package,
        # so the engine must not import it at module level.
        from repro.incremental.warmstart import influence_closure

        records = self.records.values()
        region = influence_closure(
            {record},
            {r: r.infl for r in records if r.infl},
            [(o, t) for t in records if t.contribs for o in t.contribs],
        )
        init = self.system.init
        for y in region:
            if y is not record:
                y.value = init(y.x)
                y.version += 1
                y.direction = None
            y.stable = False
        if requeue:
            self.enqueue(region)
        self.drop_contributions(region - {record})
        self._stats.restarts += 1
        if self._observed:
            self.bus.emit_restart(record.x, {y.x for y in region})
        return region

    # ----------------------------------------------------------------- #
    # Shared local-solver lookup closures.                              #
    # ----------------------------------------------------------------- #

    def fresh_solving_eval(self, record: Record, solve):
        """SLR ``eval x``: recursively solve only *fresh* unknowns.

        Previously encountered unknowns are read as-is, which is what
        makes one right-hand-side evaluation atomic (Theorem 3's
        prerequisite).
        """
        records = self.records

        def eval_(y):
            target = records.get(y)
            if target is None:
                target = self.init_unknown(y)
                solve(target)
            target.infl[record] = None
            return target.value

        return eval_

    def demand_solving_eval(self, record: Record, solve):
        """RLD/TD ``eval x``: recursively solve *every* looked-up unknown.

        Dependencies are recorded in insertion order, so that
        destabilised unknowns are re-solved deterministically.
        """

        def eval_(y):
            target = self.record(y)
            solve(target)
            if target.infl is None:
                target.infl = {}
            target.infl[record] = None
            return target.value

        return eval_

    # ----------------------------------------------------------------- #
    # Queues over unknowns and completion.                              #
    # ----------------------------------------------------------------- #

    def make_queue(self, key_of) -> ObservedWorklist:
        """A priority worklist of unknowns whose growth is reported."""
        return ObservedWorklist(
            key_of, self._stats, self.bus if self._observed else None
        )

    def observe_queue(self, size: int) -> None:
        """Report the size of a solver-managed (non-priority) worklist."""
        self._stats.observe_queue(size)
        if self._observed:
            self.bus.emit_queue(size)

    def finish(self, unknowns: Optional[int] = None) -> SolverStats:
        """Finalise the run: fix the unknown count, emit ``on_done``."""
        if unknowns is None:
            unknowns = len(self.dom) or len(self.records)
        self._stats.unknowns = unknowns
        self.bus.emit_done(self)
        return self.stats
