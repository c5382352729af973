"""Evaluation toolkit: campaign metrics and ISO 26262-style bookkeeping.

The paper's evaluation plan is "computer simulations with fault injection
support to experimentally evaluate safety assurance according to the ISO
26262 safety standard" (section I).  Campaigns run through
:class:`repro.experiments.runner.ParallelCampaignRunner`; this subpackage
provides the safety/performance metric containers, the result rows and
tables, and the safety-case verdict used by the benchmark harness.
"""

from repro.evaluation.metrics import SafetyMetrics, PerformanceMetrics, summarize, t95
from repro.evaluation.iso26262 import SafetyCase, GoalAssessment, Verdict
from repro.evaluation.reporting import format_table, format_series
from repro.evaluation.rows import ROW_COLUMNS, usecase_row

__all__ = [
    "SafetyMetrics",
    "PerformanceMetrics",
    "summarize",
    "t95",
    "ROW_COLUMNS",
    "usecase_row",
    "SafetyCase",
    "GoalAssessment",
    "Verdict",
    "format_table",
    "format_series",
]
