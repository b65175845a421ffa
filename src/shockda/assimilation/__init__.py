"""Ensemble statistics, weight matrices, and the ETKF analysis machinery."""
