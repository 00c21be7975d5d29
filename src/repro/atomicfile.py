"""Crash-safe whole-file writes, shared by checkpoints, caches and journals."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, text: str) -> None:
    """Replace the file at ``path`` with ``text``, atomically.

    The text is written to a temporary file in the target's directory,
    named after the target plus a dot and a random suffix, and renamed
    over the target with :func:`os.replace`, which is atomic on POSIX and
    Windows: a reader, or a crash at any instant, observes either the old
    file or the new one in full.  On failure the temporary file is
    removed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    prefix = os.path.basename(path) + "."
    fd, tmp = tempfile.mkstemp(prefix=prefix, dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
