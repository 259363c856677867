"""rotnorm: exact conjugation-invariant norms, lattice coset geometry, and
circle-rotation quasimorphism bounds."""

#: There is one kernel backend; kept because benchmark reports read it.
BACKEND = "pure"

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
