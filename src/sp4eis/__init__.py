"""Exact pole orders and constant-term images for the two degenerate
Eisenstein families on Sp(4), with numeric cross-validation."""

__version__ = "0.1.0"
