"""Shared numeric constants and relation-kind tags."""

import numpy as np

# Relation kinds for a matrix pair (A, B).
GAMMA = "Gamma"  # A^2 = B^3 = 1, the free product Z2 * Z3
B3 = "B3"        # A^2 = B^3, the braid group on three strands

OMEGA = np.exp(2j * np.pi / 3)   # primitive cube root of unity
