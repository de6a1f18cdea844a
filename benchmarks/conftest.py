"""Configuration for ``benchmarks/test_perf.py``, the CI ``perf`` job.

Each check times a batched kernel (or a ``--jobs`` run) against its
reference and prints a ``BENCH`` line for ``tools/bench_compare.py``::

    PYTHONPATH=src python -m pytest benchmarks/test_perf.py -q -s
"""

import os

# The perf job measures with the on-disk trace cache off, so each run
# builds its traces in-process; a user may opt in to a cache.
os.environ.setdefault("REPRO_CACHE_DIR", "off")
