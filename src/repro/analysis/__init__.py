"""Reporting helpers for experiments."""

from repro.analysis.report import Table

__all__ = ["Table"]
