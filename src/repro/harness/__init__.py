"""Experiment harness: every table/figure of the paper's evaluation and
the serving-era studies (``experiments``), over one scenario runner
(``scenario``)."""

from repro.harness.experiments import (
    batch_specialization_study,
    compile_pool_study,
    figure3_dispatch,
    fleet_study,
    memory_footprint_vs_static,
    memory_planning_study,
    predictive_study,
    restart_study,
    serving_study,
    specialization_study,
    stream_study,
    table1_lstm,
    table2_tree_lstm,
    table3_bert,
    table4_overhead,
    tape_serving_study,
    tuning_ablation,
)
from repro.utils.reporting import format_table, percentile

__all__ = [
    "table1_lstm",
    "table2_tree_lstm",
    "table3_bert",
    "table4_overhead",
    "figure3_dispatch",
    "memory_planning_study",
    "memory_footprint_vs_static",
    "serving_study",
    "specialization_study",
    "compile_pool_study",
    "restart_study",
    "predictive_study",
    "fleet_study",
    "batch_specialization_study",
    "stream_study",
    "tape_serving_study",
    "tuning_ablation",
    "format_table",
    "percentile",
]
