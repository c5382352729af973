"""Shared helpers for the benchmark harness.

Every benchmark regenerates one experiment from the paper (E1-E9) by running
a campaign over scenarios registered in :mod:`repro.experiments.scenarios`
and prints the corresponding table or series.  ``pytest benchmarks/
--benchmark-only -s`` shows the tables; without ``-s`` the printed output is
captured but the measured numbers still land in the pytest-benchmark summary.

Campaign options (registered in the repo-root ``conftest.py``):

* ``--jobs N`` — run every benchmark campaign on N forked worker processes
  through a :class:`repro.distributed.SpoolBackend` in the test's
  temporary directory;
* ``--seeds N`` — sweep seeds 1..N instead of each benchmark's default seed
  list (tables then show per-group means over the seeds).
"""

import pytest

from repro.distributed import SpoolBackend
from repro.experiments import ParallelCampaignRunner


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


def seeds_or(default, count):
    """The campaign seed list: 1..count if ``--seeds`` was given, else ``default``."""
    return list(default) if count is None else list(range(1, count + 1))


@pytest.fixture
def campaign_jobs(request):
    jobs = int(request.config.getoption("--jobs", default=1))
    if jobs < 1:
        raise pytest.UsageError(f"--jobs must be >= 1, got {jobs}")
    return jobs


@pytest.fixture
def campaign_seed_count(request):
    value = request.config.getoption("--seeds", default=None)
    return int(value) if value else None


@pytest.fixture
def campaign_runner(campaign_jobs, tmp_path):
    """A campaign runner honouring the ``--jobs`` option: a spool with that
    many forked workers when it is above 1, in-process serial otherwise."""
    backend = None
    if campaign_jobs > 1:
        backend = SpoolBackend(tmp_path / "spool", workers=campaign_jobs)
    return ParallelCampaignRunner(backend=backend)
