"""Dominating affine/linear functional selection on finite instances,
with exact-arithmetic verification and an independent feasibility oracle."""

__version__ = "0.1.0"
