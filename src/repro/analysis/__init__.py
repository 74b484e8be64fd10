"""Experiment runners and table rendering.

One function per paper table/figure lives in
:mod:`repro.analysis.experiments`; :mod:`repro.analysis.tables` renders their
structured results as the plain-text rows/series the benchmarks print.
"""

from repro.analysis.experiments import (
    figure3,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    table1,
    table2,
    table3,
)
from repro.analysis.tables import format_table

__all__ = [
    "figure3",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "table1",
    "table2",
    "table3",
    "format_table",
]
