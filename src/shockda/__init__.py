"""Gradient-weighted ensemble Kalman filtering for shock-bearing states.

A twin-experiment toolkit around the 1D shallow-water dam break: WENO5
forward models, the analytic dam-break truth, synthetic observations, an
ETKF baseline with inflation/localization, and a modified filter whose
analysis weight is built from the ensemble's gradient second moment.
"""

__version__ = "0.1.0"
