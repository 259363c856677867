"""The exact kernels: permutation closure, BFS word lengths and l-infinity
coset CVP (``cvp_enumerate``, for ``coset.theta``), in pure Python."""

from rotnorm._kernels._pure import (
    closure_bytes,
    cvp_enumerate,
    word_lengths_bytes,
)

__all__ = ["closure_bytes", "cvp_enumerate", "word_lengths_bytes"]
