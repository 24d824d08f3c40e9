"""Pinned shapes of the end-to-end benchmark's timed and serve cells.

``benchmarks/e2e/workloads.py`` builds its fig10 fio cells and its
serve-drive cells from these constants, and ``expected.json`` there
pins the rows they produce, so their values must not change without a
re-pin of that file.  Nothing in :mod:`repro` reads them.
"""

from __future__ import annotations

#: fig10 fio shape (a scaled-down ``figures.fig10`` setup).
_FIO_PARAMS = dict(total_requests=1200, working_set_pages=20_000,
                   nthreads=16)
_FIO_CACHE_PAGES = 8000
_FIO_READ_RATES = (0.0, 0.5)

#: Serve-drive shape: 32 tenants, static or dynamic partitioning.
_SERVE_DRIVE = dict(n_tenants=32, cache_pages=2048, universe_pages=1024,
                    base_iops=50.0, diurnal_amplitude=0.9,
                    diurnal_period_s=600.0, max_requests=100_000,
                    realloc_period=4000, min_fraction=0.01, ways=16)
