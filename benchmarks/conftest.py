"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment from the paper (E1-E9) by running
a campaign over scenarios registered in :mod:`repro.experiments.scenarios`
and prints the corresponding table or series.  ``pytest benchmarks/
--benchmark-only -s`` shows the tables; without ``-s`` the printed output is
captured but the measured numbers still land in the pytest-benchmark summary.

Campaign options (registered in the repo-root ``conftest.py``):

* ``--jobs N`` — run every benchmark campaign on N worker processes through
  :class:`repro.experiments.runner.MultiprocessingBackend`;
* ``--seeds N`` — sweep seeds 1..N instead of each benchmark's default seed
  list (tables then show per-group means over the seeds).
"""

import pytest

from repro.experiments import MultiprocessingBackend, ParallelCampaignRunner


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def seeds_or(default, count):
    """The campaign seed list: 1..count if ``--seeds`` was given, else ``default``."""
    return list(default) if count is None else list(range(1, count + 1))


@pytest.fixture
def campaign_jobs(request):
    return int(request.config.getoption("--jobs", default=1) or 1)


@pytest.fixture
def campaign_seed_count(request):
    value = request.config.getoption("--seeds", default=None)
    return int(value) if value else None


@pytest.fixture
def campaign_batch_size(request):
    value = request.config.getoption("--batch-size", default=None)
    # Pass 0 and negatives through: the pool backend rejects them loudly
    # instead of silently benchmarking unbatched dispatch.
    return None if value is None else int(value)


@pytest.fixture
def campaign_runner(campaign_jobs, campaign_batch_size):
    """A campaign runner honouring the ``--jobs`` and ``--batch-size`` options:
    a process pool when either is set, in-process serial otherwise."""
    backend = None
    if campaign_jobs > 1 or campaign_batch_size is not None:
        backend = MultiprocessingBackend(jobs=campaign_jobs, batch_size=campaign_batch_size)
    return ParallelCampaignRunner(backend=backend)
