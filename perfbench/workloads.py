"""Workload inputs: the batch corpora and the seeded service schedule.

The program under test only ever sees what this module generates from
the seed: job specs in a seeded order (batch) or protocol requests in a
seeded sequence (service).
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass

from common import ROOT

BATCH = ("corpus-cold",)
SERVICE = ("fleet-mixed",)
WORKLOADS = BATCH + SERVICE

#: Corpus families of ``corpus-cold`` (everything except ``table1``).
CORPUS_FAMILIES = ("examples", "buggy", "wcet", "fig7", "restart")


#: Jobs under ``--slice`` (the shortest sources).
SLICE = 12


def batch_jobs(workload: str) -> list:
    """The workload's jobs in corpus order (the seed only reorders them)."""
    from repro.batch.corpus import corpus_jobs

    if workload not in BATCH:
        raise ValueError(f"not a batch workload: {workload}")
    jobs = corpus_jobs(CORPUS_FAMILIES)
    if os.environ.get("PERFBENCH_SLICE"):
        shortest = sorted(jobs, key=lambda job: len(job.source))[:SLICE]
        keep = {job.id for job in shortest}
        jobs = [job for job in jobs if job.id in keep]
    return jobs


# --------------------------------------------------------------------- #
# Service request shapes.                                               #
# --------------------------------------------------------------------- #

#: ``update_op`` of every check: the configuration the buggy-corpus
#: goldens (``examples/buggy/expected/``) were recorded with.
CHECK_OP = "warrow:delay=1"
#: ``max_evals`` of a request is ``FRESH_BASE`` plus its nonce.  The
#: budget is part of the cache key but far above what any program needs,
#: so each nonce makes a fresh key for the same amount of work.
FRESH_BASE = 4_000_000


@dataclass(frozen=True)
class Shape:
    """One program and request kind; the oracle records its answers."""

    id: str
    op: str
    source: str
    #: ``cold`` / ``warm`` / ``check``: what its first sight is meant to be.
    kind: str
    #: For warm shapes, the id of the cold shape they edit.
    base: str = ""

    def message(self, nonce: int = 0) -> dict:
        message = {
            "op": self.op,
            "source": self.source,
            "max_evals": FRESH_BASE + nonce,
            "label": f"{self.id}#{nonce}",
        }
        if self.op == "check":
            message["update_op"] = CHECK_OP
        return message


@dataclass(frozen=True)
class Request:
    """A shape under a nonce: one cache key.

    A warm shape carries the nonce of its base, so the two share their
    options fingerprint and the base is the edit's only warm donor.
    """

    shape: Shape
    nonce: int

    @property
    def key(self) -> str:
        return f"{self.shape.id}#{self.nonce}"

    def message(self) -> dict:
        return self.shape.message(self.nonce)


def buggy_sources() -> dict:
    directory = ROOT / "examples" / "buggy"
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(directory.glob("*.c"))
    }


def service_shapes() -> dict:
    """Every request shape a service schedule can contain, by id."""
    from repro.bench.wcet import by_size
    from test_bench_incremental import single_constant_edits

    shapes = {}
    for program in by_size():
        base = f"solve/{program.name}"
        shapes[base] = Shape(base, "solve", program.source, "cold")
        for index, edited in enumerate(single_constant_edits(program.source)):
            sid = f"{base}/e{index}"
            shapes[sid] = Shape(sid, "solve", edited, "warm", base)
    for name, source in buggy_sources().items():
        sid = f"check/{name}"
        shapes[sid] = Shape(sid, "check", source, "check")
    return shapes


#: Requests per block of the schedule, by first-sight kind; the rest of
#: each block are hits.  Fixed counts per block (in seeded order) keep the
#: mix, and so the work per request, the same in every run.
BLOCK = 100
MIX = (("cold", 3), ("warm", 1), ("check", 1))
#: Hits repeat one of this many most recently issued keys, so the
#: working set stays well inside the daemon's 256-entry cache.
HIT_WINDOW = 96
#: Warm requests edit one of this many most recent cold solves, so the
#: donor is still cached however long the run.
WARM_WINDOW = 16
#: An edit is offered once this many requests have been issued after its
#: base, so that its base has been answered (while one client waits for a
#: cold solve, the other goes on sending hits).
WARM_LAG = 300
#: A tiny program outside the pool, solved once during set-up.
WARMUP_MESSAGE = {
    "op": "solve",
    "source": "int main() { int i; i = 0; while (i < 5) { i = i + 1; } return i; }\n",
    "max_evals": FRESH_BASE - 1,
    "label": "warmup",
}


class Schedule:
    """The seeded request stream shared by the closed-loop clients.

    Clients call :meth:`next` under a lock, so the *sequence* of requests
    is a pure function of the seed (which client sends which is not).
    Cold solves and checks deal the programs from a deck reshuffled after
    every round, each under a fresh nonce, and a warm request edits a
    recent cold solve under its nonce.  The cost of a request therefore
    does not depend on how far the run gets, and the stream never ends.
    """

    def __init__(self, shapes: dict, seed: int) -> None:
        self._rng = random.Random(seed)
        self._shapes = shapes
        self._cold = self._deck([s for s in shapes.values() if s.kind == "cold"])
        self._check = self._deck([s for s in shapes.values() if s.kind == "check"])
        self._edits = {}
        for shape in shapes.values():
            if shape.kind == "warm":
                self._edits.setdefault(shape.base, []).append(shape)
        self._nonce = 0
        #: ``(issue index of the base, edit request)``, oldest first.
        self._warm = []
        self._recent = []
        self._block = []
        self._lock = threading.Lock()
        #: ``(intended kind, request key)`` per issued request, in order.
        self.issued = []

    def _deck(self, shapes: list):
        while True:
            order = list(shapes)
            self._rng.shuffle(order)
            yield from order

    def _fresh(self, deck) -> Request:
        self._nonce += 1
        return Request(next(deck), self._nonce)

    def _first_sight(self, kind: str) -> Request:
        if kind == "warm":
            ready = [
                i for i, (at, _) in enumerate(self._warm)
                if at < len(self.issued) - WARM_LAG
            ]
            if ready:
                return self._warm.pop(self._rng.choice(ready))[1]
            kind = "cold"
        if kind == "check":
            return self._fresh(self._check)
        request = self._fresh(self._cold)
        edits = self._edits.get(request.shape.id)
        if edits:
            edit = Request(self._rng.choice(edits), request.nonce)
            self._warm.append((len(self.issued), edit))
            del self._warm[:-WARM_WINDOW]
        return request

    def next(self) -> Request:
        with self._lock:
            if not self._block:
                self._block = [kind for kind, count in MIX for _ in range(count)]
                self._block += ["hit"] * (BLOCK - len(self._block))
                self._rng.shuffle(self._block)
            kind = self._block.pop()
            if kind == "hit" and self._recent:
                request = self._rng.choice(self._recent)
            else:
                kind = "cold" if kind == "hit" else kind
                request = self._first_sight(kind)
                self._recent.append(request)
                del self._recent[:-HIT_WINDOW]
            self.issued.append((kind, request.key))
            return request
