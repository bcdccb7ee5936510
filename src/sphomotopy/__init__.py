"""Exact-arithmetic rational homotopy of rank-2 moduli spaces.

Builds the cohomology ring of the moduli space of stable rank-2 bundles
with odd fixed determinant over a genus-g curve, computes a minimal model
of it degree by degree, and decomposes each homotopy degree into
irreducible symplectic representations, all over exact rationals.
"""

# one pure-Python elimination kernel; the benchmark records this name
BACKEND = "python"

__all__ = ["BACKEND"]
__version__ = "0.1.0"
