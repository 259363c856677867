"""The exact kernels: permutation closure, BFS word lengths and l-infinity
coset CVP, in pure Python."""

from rotnorm._kernels._pure import (
    BACKEND,
    closure_bytes,
    cvp_enumerate,
    cvp_min,
    word_lengths_bytes,
)

__all__ = ["BACKEND", "closure_bytes", "cvp_enumerate", "cvp_min",
           "word_lengths_bytes"]
