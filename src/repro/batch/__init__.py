"""Parallel batch solving and corpus benchmarking.

The paper's experimental claims are corpus-scale claims -- precision at
~39% of program points, bounded ⌴-solver cost, both measured across whole
benchmark suites -- so this package solves *corpora*, not programs:

* :mod:`repro.batch.jobs`   -- picklable job specs, isolated execution,
  the per-job exit-code taxonomy, post-solution fingerprints;
* :mod:`repro.batch.farm`   -- the work-stealing process pool with crash
  isolation and watchdog-based per-job deadlines;
* :mod:`repro.batch.corpus` -- deterministic enumeration of the
  examples/WCET/fig7/table1 workload families;
* :mod:`repro.batch.bench`  -- min-of-N interleaved measurement, the
  ``BENCH_<rev>.json`` schema, and baseline regression gating (the
  ``repro bench`` subcommand and the CI bench gate);
* :mod:`repro.batch.matrix` -- the precision x cost strategy matrix
  (``repro bench --matrix``): every corpus program under every
  registered combine strategy, compared point-by-point against a
  baseline strategy (Figure 7 at corpus scale).

See ``docs/batch.md`` for the architecture tour.
"""

from repro.batch.bench import (
    BENCH_FORMAT,
    EVAL_THRESHOLD,
    TIME_THRESHOLD,
    BenchComparison,
    compare_benches,
    git_revision,
    load_bench,
    run_bench,
    validate_bench,
    write_bench,
)
from repro.batch.corpus import (
    MATRIX_FAMILIES,
    buggy_sources,
    corpus_jobs,
    example_sources,
    family_names,
    matrix_programs,
)
from repro.batch.farm import run_jobs
from repro.batch.jobs import (
    EXIT_DIVERGENCE,
    EXIT_FAULT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNKNOWN,
    JobResult,
    JobSpec,
    execute_job,
    options_fingerprint,
    solution_fingerprint,
    spec_fingerprint,
)
from repro.batch.matrix import (
    DEFAULT_MATRIX_STRATEGIES,
    MATRIX_FORMAT,
    compare_matrices,
    render_matrix,
    run_matrix,
    validate_matrix,
)

__all__ = [
    "BENCH_FORMAT",
    "DEFAULT_MATRIX_STRATEGIES",
    "MATRIX_FAMILIES",
    "MATRIX_FORMAT",
    "EVAL_THRESHOLD",
    "TIME_THRESHOLD",
    "BenchComparison",
    "EXIT_DIVERGENCE",
    "EXIT_FAULT",
    "EXIT_INPUT",
    "EXIT_OK",
    "EXIT_UNKNOWN",
    "JobResult",
    "JobSpec",
    "buggy_sources",
    "compare_benches",
    "compare_matrices",
    "corpus_jobs",
    "example_sources",
    "execute_job",
    "family_names",
    "git_revision",
    "load_bench",
    "matrix_programs",
    "options_fingerprint",
    "render_matrix",
    "run_bench",
    "run_jobs",
    "run_matrix",
    "solution_fingerprint",
    "spec_fingerprint",
    "validate_bench",
    "validate_matrix",
    "write_bench",
]
