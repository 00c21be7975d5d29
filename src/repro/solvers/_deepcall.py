"""Deep-recursion execution support for the local solvers.

RLD, SLR and SLR+ are recursive by nature: ``solve`` re-enters itself
through ``eval`` callbacks inside user right-hand sides.  Python's default
interpreter stack cannot host tens of thousands of such frames -- raising
``sys.setrecursionlimit`` is not enough because right-hand sides routinely
pass through C frames (``max``, ``min``, comprehensions) which consume the
native stack.  The helper below therefore runs a solver body in a dedicated
thread with a large native stack.

Both settings are process-wide, and several solves may run at once (the
service runs one per worker thread).  The recursion limit is therefore
only ever raised, never restored, and the stack size is set and restored
around a thread start under one lock.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, TypeVar

T = TypeVar("T")

#: Native stack size for solver threads (bytes).
_STACK_BYTES = 512 * 1024 * 1024

#: Python-level recursion limit inside solver threads.
_RECURSION_LIMIT = 1_000_000

#: Serialises changes to the process-wide recursion limit and stack size.
_SETTINGS_LOCK = threading.Lock()


def ensure_recursion_limit(limit: int) -> None:
    """Raise the process-wide recursion limit to at least ``limit``.

    Never lowers it: a lower limit would abort any thread that is
    deeper than that at the moment.
    """
    with _SETTINGS_LOCK:
        if sys.getrecursionlimit() < limit:
            sys.setrecursionlimit(limit)


def call_with_deep_stack(fn: Callable[[], T]) -> T:
    """Run ``fn`` on a thread with a large native stack and return its result.

    Exceptions raised by ``fn`` (including solver divergence guards)
    propagate to the caller unchanged.
    """
    outcome: dict = {}

    def runner() -> None:
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    ensure_recursion_limit(_RECURSION_LIMIT)
    thread = threading.Thread(target=runner, name="repro-solver")
    with _SETTINGS_LOCK:
        # A thread's stack size is fixed when it starts, so restoring the
        # default right after the start cannot shrink a running solve.
        old_size = threading.stack_size(_STACK_BYTES)
        try:
            thread.start()
        finally:
            threading.stack_size(old_size)
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]
