"""Expected answers: recorded fingerprints plus the buggy-corpus goldens.

``expected.json`` holds, for every batch job and every service request
shape, the solution fingerprint (and status, evaluation count and a
digest of the checker diagnostics) that ``execute_job`` produced when
the benchmark was defined, and for every edited program the fingerprint
of its warm start from the unedited program.  Check diagnostics are additionally held to
the committed goldens under ``examples/buggy/expected/``.

Regenerate (only when a change is *meant* to alter answers)::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from common import ROOT, require_source

EXPECTED = Path(__file__).resolve().parent / "expected.json"
FORMAT = "perfbench-expected/2"
#: Statuses of a successful job (``findings``: a check that found bugs).
OK_STATUSES = ("ok", "findings")


def diagnostics_digest(diagnostics) -> str:
    blob = json.dumps(list(diagnostics), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def goldens() -> dict:
    """Golden check diagnostics per buggy program name."""
    directory = ROOT / "examples" / "buggy" / "expected"
    return {
        path.stem: json.loads(path.read_text(encoding="utf-8"))["diagnostics"]
        for path in sorted(directory.glob("*.json"))
    }


def _record(result) -> dict:
    return {
        "status": result.status,
        "hash": result.hash,
        "evaluations": result.evaluations,
        "diagnostics": diagnostics_digest(result.diagnostics),
    }


def load() -> dict:
    doc = json.loads(EXPECTED.read_text(encoding="utf-8"))
    if doc.get("format") != FORMAT:
        raise ValueError(f"{EXPECTED}: not a {FORMAT} document")
    doc["goldens"] = goldens()
    return doc


def batch_wrong(result, job, expected: dict) -> bool:
    """Whether a batch job's result differs from the recorded answer."""
    want = expected["batch"].get(job.id)
    if want is None or _record(result) != want:
        return True
    if job.kind == "check":
        return list(result.diagnostics) != expected["goldens"].get(job.program)
    return False


def service_wrong(expected: dict, replies) -> int:
    """Wrong replies among ``(shape, cache outcome, result dict)`` triples.

    A two-tier rule, as in ``tools/loadtest.py``: a cold execution
    (``miss``) of a solve must equal the recorded answer, and a check,
    whatever its outcome, must equal its record and the golden
    diagnostics.  Warm starts may settle on a different, independently
    re-verified post solution, so warm replies and hits of a solve may
    also give the answer recorded for a warm start from the shape's base.
    That answer is recorded rather than taken from the run's own replies,
    so a broken warm start cannot vouch for itself.
    """
    wrong = 0
    for shape, mode, result in replies:
        want = expected["service"].get(shape.id)
        if want is None or result.get("status") not in OK_STATUSES:
            wrong += 1
        elif shape.op == "check":
            got = {
                "status": result["status"],
                "hash": result["hash"],
                "evaluations": result["evaluations"],
                "diagnostics": diagnostics_digest(result["diagnostics"]),
            }
            name = shape.id.split("/", 1)[1]
            wrong += got != want or result["diagnostics"] != expected["goldens"][name]
        elif mode == "miss":
            wrong += result["hash"] != want["hash"]
        else:
            allowed = {want["hash"], expected["warm"].get(shape.id)}
            wrong += result["hash"] not in allowed
    return wrong


def generate() -> dict:
    """Run every batch job and service shape once, in-process.

    Each edit shape is also run as a warm start from its base, the only
    donor a schedule ever offers it.
    """
    from repro.batch.jobs import execute_job, spec_fingerprint
    from repro.service.executor import execute_service_job
    from repro.service.protocol import (
        check_request_to_jobspec,
        solve_request_to_jobspec,
    )

    from workloads import BATCH, batch_jobs, service_shapes

    doc = {"format": FORMAT, "batch": {}, "service": {}, "warm": {}}
    for workload in BATCH:
        for job in batch_jobs(workload):
            doc["batch"][job.id] = _record(execute_job(job))
    shapes = service_shapes()
    specs = {}
    for sid, shape in sorted(shapes.items()):
        normalize = (
            check_request_to_jobspec if shape.op == "check"
            else solve_request_to_jobspec
        )
        specs[sid], _ = normalize(shape.message())
        doc["service"][sid] = _record(execute_job(specs[sid]))
    for sid, shape in sorted(shapes.items()):
        if shape.kind != "warm":
            continue
        base = specs[shape.base]
        donor = execute_service_job(base)
        warm = execute_service_job(
            specs[sid], [(spec_fingerprint(base), base.source, donor.state)]
        )
        doc["warm"][sid] = warm.result.hash
    return doc


def main() -> int:
    require_source()
    doc = generate()
    bad = [
        key for section in ("batch", "service")
        for key, rec in doc[section].items()
        if rec["status"] not in OK_STATUSES
    ]
    if bad:
        print(f"oracle: {len(bad)} entries failed: {bad[:5]}", file=sys.stderr)
        return 1
    EXPECTED.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(
        f"oracle: wrote {len(doc['batch'])} batch and "
        f"{len(doc['service'])} service answers to {EXPECTED}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
