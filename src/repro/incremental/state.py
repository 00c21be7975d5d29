"""Snapshot and restore of solver state.

A terminated run of SW/SLR/SLR+ leaves behind exactly the state that a
later *warm start* needs: the mapping ``sigma``, the recorded influence
sets, the priority keys and discovery counter of a local solve, the
stability set, and -- for SLR+ -- the per-origin side-effect contributions.
:class:`SolverState` bundles that state, :func:`capture` extracts it from
a solver result, and the JSON round-trip (:meth:`SolverState.to_json` /
:meth:`SolverState.from_json`) persists it across processes using the
per-domain codecs of :mod:`repro.incremental.codecs`.

Serialization is *deterministic*: all pair lists are sorted by the JSON
rendering of the encoded unknown, so two snapshots of the same state are
byte-identical -- the property behind the golden round-trip test.

:meth:`SolverState.transfer` re-keys a snapshot along an unknown mapping
(old version -> new version), dropping every unknown the mapping does not
cover; this is how a snapshot taken on one program version is carried to
the next (see :mod:`repro.lang.diff`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Set, Tuple

from repro.incremental.codecs import UnknownCodec, ValueCodec, value_codec

#: Format marker written into every serialized state.
FORMAT = "repro-solver-state/1"


class StateFormatError(Exception):
    """Raised when a serialized state has the wrong format marker."""


@dataclass
class SolverState:
    """The resumable state of one terminated solver run."""

    #: Registry name of the solver that produced the state.
    solver: str
    #: The final mapping over the encountered unknowns.
    sigma: Dict[Hashable, Any] = field(default_factory=dict)
    #: Influence sets as recorded at termination (SLR discipline: each
    #: set contains the unknown itself).  Empty for SW, whose influence
    #: map is static.
    infl: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)
    #: Priority keys of a local solve (later-discovered = smaller).
    keys: Dict[Hashable, int] = field(default_factory=dict)
    #: The encountered domain.
    dom: Set[Hashable] = field(default_factory=set)
    #: Unknowns stable at termination (= ``dom`` for a finished solve).
    stable: Set[Hashable] = field(default_factory=set)
    #: Discovery counter: the next fresh unknown receives key ``-counter``.
    counter: int = 0
    #: Widening points in effect, for selective operators (optional).
    wpoints: Set[Hashable] = field(default_factory=set)
    #: SLR+ only: latest contribution of origin ``x`` to target ``z``.
    contribs: Dict[Tuple[Hashable, Hashable], Any] = field(default_factory=dict)
    #: SLR+ only: the final contributor sets.
    contributors: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)
    #: SLR+ classical mode only: targets of accumulated side effects.
    accumulated: Set[Hashable] = field(default_factory=set)
    #: Optional snapshot of the update operator's per-unknown state
    #: (:func:`repro.strategies.export_combine_state`): delayed
    #: widening's grow counts, ⌴ₖ's switch counters, ...  ``None`` for
    #: stateless operators and legacy snapshots; serialized only when
    #: present, so existing payloads stay byte-identical.
    combine: Optional[Dict[str, Any]] = None

    # ----------------------------------------------------------------- #
    # Cross-version transfer.                                           #
    # ----------------------------------------------------------------- #

    def transfer(
        self, rename: Callable[[Hashable], Optional[Hashable]]
    ) -> "SolverState":
        """Re-key the state along ``rename``; drop unmapped unknowns.

        ``rename(u)`` returns the unknown's name in the new version, or
        ``None`` when ``u`` has no counterpart (a deleted program point).
        Influence and contributor sets are mapped element-wise, silently
        shedding edges into dropped unknowns.  Priority keys and the
        counter are preserved, so unknowns discovered during the warm run
        receive fresh keys strictly smaller than all restored ones.
        The combine-operator snapshot is dropped: its counters describe
        the *old* version's trajectory, and starting the operator cold is
        always sound (it can only delay acceleration, never skip it).
        """
        cache: Dict[Hashable, Optional[Hashable]] = {}

        def m(u):
            if u not in cache:
                cache[u] = rename(u)
            return cache[u]

        def map_set(s):
            return {v for v in (m(u) for u in s) if v is not None}

        sigma = {}
        infl = {}
        keys = {}
        for u, value in self.sigma.items():
            v = m(u)
            if v is None:
                continue
            sigma[v] = value
        for u, influenced in self.infl.items():
            v = m(u)
            if v is None:
                continue
            infl[v] = map_set(influenced)
        for u, k in self.keys.items():
            v = m(u)
            if v is not None:
                keys[v] = k
        contribs = {}
        contributors = {}
        for (x, z), value in self.contribs.items():
            nx, nz = m(x), m(z)
            if nx is None or nz is None:
                continue
            contribs[(nx, nz)] = value
        for z, origins in self.contributors.items():
            nz = m(z)
            if nz is None:
                continue
            contributors[nz] = map_set(origins)
        return SolverState(
            solver=self.solver,
            sigma=sigma,
            infl=infl,
            keys=keys,
            dom=map_set(self.dom),
            stable=map_set(self.stable),
            counter=self.counter,
            wpoints=map_set(self.wpoints),
            contribs=contribs,
            contributors=contributors,
            accumulated=map_set(self.accumulated),
        )

    # ----------------------------------------------------------------- #
    # JSON round-trip.                                                  #
    # ----------------------------------------------------------------- #

    def to_json(
        self,
        values: ValueCodec,
        unknowns: Optional[UnknownCodec] = None,
    ) -> Dict[str, Any]:
        """Serialize to a JSON-able dict with deterministic ordering.

        The ``combine`` key is emitted only when a combine-operator
        snapshot is present, so snapshots without one (every snapshot
        predating the strategies subsystem) keep their exact bytes.
        """
        uc = unknowns if unknowns is not None else UnknownCodec()

        def skey(pair):
            return json.dumps(pair[0], sort_keys=True)

        def enc_pairs(mapping, enc_value):
            return sorted(
                ([uc.encode(u), enc_value(v)] for u, v in mapping.items()),
                key=skey,
            )

        def enc_set(s):
            return sorted((uc.encode(u) for u in s), key=lambda e: json.dumps(e))

        out = {
            "format": FORMAT,
            "solver": self.solver,
            "counter": self.counter,
            "sigma": enc_pairs(self.sigma, values.encode),
            "infl": enc_pairs(self.infl, enc_set),
            "keys": enc_pairs(self.keys, int),
            "dom": enc_set(self.dom),
            "stable": enc_set(self.stable),
            "wpoints": enc_set(self.wpoints),
            "contribs": sorted(
                (
                    [uc.encode(x), uc.encode(z), values.encode(v)]
                    for (x, z), v in self.contribs.items()
                ),
                key=lambda t: json.dumps(t[:2], sort_keys=True),
            ),
            "contributors": enc_pairs(self.contributors, enc_set),
            "accumulated": enc_set(self.accumulated),
        }
        if self.combine:
            out["combine"] = self.combine
        return out

    @classmethod
    def from_json(
        cls,
        data: Dict[str, Any],
        values: ValueCodec,
        unknowns: Optional[UnknownCodec] = None,
    ) -> "SolverState":
        """Restore a state serialized by :meth:`to_json`."""
        if data.get("format") != FORMAT:
            raise StateFormatError(
                f"expected format {FORMAT!r}, got {data.get('format')!r}"
            )
        uc = unknowns if unknowns is not None else UnknownCodec()

        def dec_pairs(pairs, dec_value):
            return {uc.decode(u): dec_value(v) for u, v in pairs}

        def dec_set(elems):
            return {uc.decode(e) for e in elems}

        return cls(
            solver=data["solver"],
            sigma=dec_pairs(data["sigma"], values.decode),
            infl=dec_pairs(data["infl"], dec_set),
            keys=dec_pairs(data["keys"], int),
            dom=dec_set(data["dom"]),
            stable=dec_set(data["stable"]),
            counter=int(data["counter"]),
            wpoints=dec_set(data["wpoints"]),
            contribs={
                (uc.decode(x), uc.decode(z)): values.decode(v)
                for x, z, v in data["contribs"]
            },
            contributors=dec_pairs(data["contributors"], dec_set),
            accumulated=dec_set(data["accumulated"]),
            combine=data.get("combine"),
        )

    def dumps(self, lattice, unknowns: Optional[UnknownCodec] = None) -> str:
        """Serialize to a JSON string, deriving the value codec."""
        return json.dumps(
            self.to_json(value_codec(lattice), unknowns),
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def loads(
        cls, text: str, lattice, unknowns: Optional[UnknownCodec] = None
    ) -> "SolverState":
        """Restore from a JSON string, deriving the value codec."""
        return cls.from_json(json.loads(text), value_codec(lattice), unknowns)


# --------------------------------------------------------------------- #
# Capture from solver results.                                          #
# --------------------------------------------------------------------- #

def _export_op(op) -> Optional[Dict[str, Any]]:
    """``op``'s combine-state snapshot, or ``None`` when stateless."""
    if op is None:
        return None
    from repro.strategies.state import export_combine_state

    return export_combine_state(op) or None


def capture(
    result,
    solver: str,
    wpoints: Set[Hashable] = frozenset(),
    *,
    op=None,
) -> SolverState:
    """Snapshot a terminated solver result as a :class:`SolverState`.

    Works for all three warm-startable solvers: ``SolverResult`` (SW),
    ``LocalResult`` (SLR), and ``SideResult`` (SLR+); the ``solver`` name
    records which one so :func:`repro.incremental.warmstart.warm_solve`
    can dispatch.  For local solves the stability set is the encountered
    domain (every unknown is stable at termination) and the discovery
    counter is reconstructed from the smallest priority key.

    :param op: when given, the run's update operator; its per-unknown
        state (:func:`repro.strategies.export_combine_state`) rides
        along in :attr:`SolverState.combine` so a resume can restore
        widening delays and ⌴ₖ budgets exactly.
    """
    keys = dict(getattr(result, "keys", {}) or {})
    infl = {x: set(s) for x, s in (getattr(result, "infl", {}) or {}).items()}
    sigma = dict(result.sigma)
    dom = set(keys) if keys else set(sigma)
    counter = 1 - min(keys.values()) if keys else 0
    return SolverState(
        solver=solver,
        sigma=sigma,
        infl=infl,
        keys=keys,
        dom=dom,
        stable=set(dom),
        counter=counter,
        # Restarting solvers carry their dynamically detected widening
        # points on the result; an explicit argument still wins.
        wpoints=(
            set(wpoints)
            if wpoints
            else set(getattr(result, "wpoints", ()) or ())
        ),
        contribs=dict(getattr(result, "contribs", {}) or {}),
        contributors={
            z: set(s)
            for z, s in (getattr(result, "contributors", {}) or {}).items()
        },
        accumulated=set(getattr(result, "accumulated", ()) or ()),
        combine=_export_op(op),
    )


def capture_engine(
    engine,
    solver: str,
    wpoints: Set[Hashable] = frozenset(),
    *,
    include_combine: bool = False,
) -> SolverState:
    """Snapshot a *running* :class:`~repro.solvers.engine.SolverEngine`.

    Unlike :func:`capture`, which snapshots a terminated result (where
    every encountered unknown is stable), this works mid-iteration -- it
    is what the supervision layer's periodic checkpoints use.  Two
    subtleties make the snapshot resumable:

    * unknowns whose evaluation is currently *in flight* are removed from
      the stability set: their pending evaluation never committed, so a
      resumed run must re-solve them;
    * the SLR loop's state -- contributions, widening points and
      accumulated targets -- is read from the engine's records;
    * with ``include_combine`` the update operator's own per-unknown
      state (widening delays, ⌴ₖ budgets) is snapshotted from
      ``engine.op`` into :attr:`SolverState.combine` -- opt-in, so
      existing checkpoint payloads stay byte-identical.

    A crash-recovery resume destabilizes ``state.dom - state.stable``
    (see :func:`resume_dirty`); for SW, whose loop does not maintain the
    stability set, that conservatively re-queues every unknown -- the
    resumed run still starts from the snapshotted ``sigma`` instead of
    bottom.
    """
    stable = set(engine.stable)
    stable.difference_update(engine.inflight)
    contribs, contributors = engine.contributions()
    # Localized solvers (SLR2/SLR3, TDR) flag their dynamically detected
    # widening points; fall back to them when the caller does not pass a
    # wpoint set of its own.
    if not wpoints:
        wpoints = engine.flagged("wpoint")
    return SolverState(
        solver=solver,
        sigma=engine.sigma.copy(),
        infl=engine.infl.copy(),
        keys=engine.keys.copy(),
        dom=set(engine.dom) or set(engine.sigma),
        stable=stable,
        counter=engine._counter,
        wpoints=set(wpoints),
        contribs=contribs,
        contributors=contributors,
        accumulated=engine.flagged("accumulated"),
        combine=(
            _export_op(getattr(engine, "op", None))
            if include_combine
            else None
        ),
    )


def resume_dirty(state: SolverState) -> Set[Hashable]:
    """The unknowns a crash-recovery warm start must destabilize.

    Everything the snapshot does not prove stable: the complement of
    ``state.stable`` within ``state.dom``.  Pass this as the ``dirty``
    argument of :func:`repro.incremental.warmstart.warm_solve` to resume
    an interrupted run (the program itself is unchanged, so there are no
    edit-dirty unknowns -- only work the crash cut short).
    """
    return set(state.dom) - set(state.stable)
