"""Analysis layer: sweeps, scaling-law fitting, tables and ASCII figures."""

from repro.analysis.fitting import (
    LogLawFit,
    PowerLawFit,
    estimate_growth_exponent,
    exponential_law_error,
    fit_log_law,
    fit_power_law,
    select_intensity_model,
)
from repro.analysis.plotting import ascii_chart, save_csv
from repro.analysis.report import Table
from repro.analysis.roofline import (
    attainable_performance,
    memory_for_ridge,
    ridge_point,
    roofline_chart,
)
from repro.analysis.sweep import MemorySweepResult, measured_rebalance_curve

__all__ = [
    "LogLawFit",
    "MemorySweepResult",
    "PowerLawFit",
    "Table",
    "ascii_chart",
    "attainable_performance",
    "estimate_growth_exponent",
    "exponential_law_error",
    "fit_log_law",
    "fit_power_law",
    "measured_rebalance_curve",
    "memory_for_ridge",
    "ridge_point",
    "roofline_chart",
    "save_csv",
    "select_intensity_model",
]
