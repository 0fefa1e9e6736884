"""Corpus quality scoring, learned score weighting, and budgeted selection."""

__version__ = "0.1.0"
