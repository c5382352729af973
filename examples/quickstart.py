#!/usr/bin/env python3
"""Quickstart: run a KARYON safety-kernel scenario through ``repro.experiments``.

The ``demo/safety_kernel`` scenario (registered in
``repro.experiments.scenarios``) builds a single vehicle with one abstract
ranging sensor (fault-injected between t=8s and t=16s) and one V2V freshness
indicator (silent between t=20s and t=30s); the safety kernel selects the
highest Level of Service whose safety rules hold, downgrading and recovering
as conditions change.

Instead of hand-rolling the run loop, this example drives the scenario the
way every experiment in this repo runs: as a campaign over seeds through the
:class:`~repro.experiments.runner.ParallelCampaignRunner`.

Run with:  PYTHONPATH=src python examples/quickstart.py

The same campaign is available from the command line:

    PYTHONPATH=src python -m repro.experiments run demo/safety_kernel --seeds 3
    PYTHONPATH=src python -m repro.experiments list
"""

from repro.evaluation.reporting import format_table
from repro.experiments import ParallelCampaignRunner


def main() -> None:
    runner = ParallelCampaignRunner()
    result = runner.run("demo/safety_kernel", seeds=[1, 2, 3])

    rows = [{"seed": record.seed, **record.metrics} for record in result.records]
    print(format_table(rows, title="demo/safety_kernel: one row per seeded run"))
    print()
    print(format_table(result.aggregate_rows(), title="campaign aggregates"))
    print()
    print("Reading the table: the kernel downgrades when the radar freezes")
    print("(stuck-at fault) and when the V2V link goes silent, then recovers;")
    print("the cycle interval stays below its 0.1 s bound throughout.")
    print()
    print("Explore further:  PYTHONPATH=src python -m repro.experiments list")


if __name__ == "__main__":
    main()
