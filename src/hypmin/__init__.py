"""Differential-geometry workbench for translation surfaces in the
half-space model of hyperbolic 3-space: curvature kernel, exact identity
verification, and least-squares falsification searches."""
