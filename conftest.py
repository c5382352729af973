"""Repo-root pytest configuration.

Registers the campaign options shared by the benchmark harness (pytest only
honours ``pytest_addoption`` in a rootdir conftest, so they live here rather
than in ``benchmarks/conftest.py``; the fixtures that consume them are there).
"""


def pytest_addoption(parser):
    group = parser.getgroup("campaign", "experiment campaign options")
    group.addoption(
        "--jobs",
        type=int,
        default=1,
        help="spool worker processes for campaign-backed benchmarks (E1-E9)",
    )
    group.addoption(
        "--seeds",
        type=int,
        default=None,
        help="run seeds 1..N instead of each benchmark's default seed list",
    )
