"""Pure-Python kernels on plain ints and bytes.

Permutations are passed as bytes objects (degree <= 12, so every image fits
in one byte), and ``closure_bytes`` forms each product with one
``bytes.translate`` call; ``cvp_enumerate``, the one CVP kernel, works on
exact Python integers of any size.
"""

from __future__ import annotations

BACKEND = "pure"


class _OverBudget(Exception):
    """Unwinds ``cvp_enumerate``'s recursion once it passes its node cap."""


def closure_bytes(gens: list[bytes], cap: int):
    """Close a set of permutations (as bytes) under products.

    Returns the elements in discovery order, or None if the closure exceeds
    `cap` elements.  A finite set of permutations closed under products is a
    group, so inverses come for free.

    Each product cur*g is one ``bytes.translate`` call: with cur padded to a
    256-byte table, ``g.translate(table)[i] == cur[g[i]]``, so the interpreter
    runs one C-level table lookup per product instead of a loop over points.
    The table is built once per popped element and serves every generator.
    On a 2-vCPU host with Python 3.11 the closure of S7 takes about 2 ms and
    that of S8 14-26 ms.
    """
    if not gens:
        return []
    n = len(gens[0])
    pad = bytes(256 - n)
    ident = bytes(range(n))
    seen = {ident}
    elems = [ident]
    for cur in elems:  # the list grows as it is walked: a BFS queue
        table = cur + pad
        for g in gens:
            prod = g.translate(table)
            if prod not in seen:
                if len(elems) >= cap:
                    return None
                seen.add(prod)
                elems.append(prod)
    return elems


def word_lengths_bytes(elements: list[bytes], s: list[bytes]) -> list[int]:
    """BFS word lengths over generating set `s` in the group `elements`.

    Result is aligned with `elements`; unreachable elements get -1 (meaning
    infinite word norm).  Every product of a group element with a member of
    `s` must again lie in `elements`.

    This is the element-level BFS.  ``groups.word_norm`` runs its BFS over
    conjugacy classes instead; perfbench's ``bfs_s8_transpositions`` case
    still times this kernel.
    """
    if not elements:
        return []
    n = len(elements[0])
    index = {e: i for i, e in enumerate(elements)}
    ident = bytes(range(n))
    dist = [-1] * len(elements)
    dist[index[ident]] = 0
    frontier = [ident]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for cur in frontier:
            for g in s:
                prod = bytes(cur[g[i]] for i in range(n))
                j = index[prod]
                if dist[j] < 0:
                    dist[j] = d
                    nxt.append(prod)
        frontier = nxt
    return dist


def cvp_enumerate(
    basis: list[list[int]],
    pivots: list[int],
    target: list[int],
    bound: int,
    max_nodes=None,
):
    """Exact integer l-infinity closest-point enumeration on a coset.

    Minimizes max|target + sum_j c_j * basis[j]| over integer coefficients.
    `bound` is a certified initial search radius: some optimal point has all
    pivot coordinates within it.  Branch-and-bound: the basis rows are upper
    triangular with increasing pivots, so once row j's coefficient is chosen
    every coordinate from pivots[j] up to the next pivot is final, and
    ``rec(j, y, settled)`` carries the largest final |coordinate| so far as
    `settled`.  Columns before the first pivot are never touched, so they
    seed it.  A node whose `settled` exceeds the best norm is cut.

    Row j's coefficients c are visited center-out (`center`, then down, then
    up), so the radius min(bound, best) shrinks fast.  |y[p] + c*piv| is
    convex in c and least at `center`, so it only grows along each side: the
    first c past the radius ends that side, just as an interval of admissible
    c would, and as the radius only shrinks no later c comes back within it.
    If `center` misses, every c does.

    Returns (best_norm, points) where points is the sorted list of all
    attaining integer vectors, or None once the search has entered more than
    ``max_nodes`` nodes (one per partial choice of coefficients).
    """
    ell = len(basis)
    ends = [*pivots[1:], len(target)]
    best, points, budget = None, [], max_nodes

    def rec(j: int, y: list[int], settled: int) -> None:
        nonlocal best, points, budget
        if budget is not None:
            budget -= 1
            if budget < 0:
                raise _OverBudget
        if best is not None and settled > best:
            return
        if j == ell:
            if best is None or settled < best:
                best, points = settled, [tuple(y)]
            else:
                points.append(tuple(y))
            return
        row, p = basis[j], pivots[j]
        piv = row[p]
        center = -((2 * y[p] + piv) // (2 * piv))
        for c, step in ((center, -1), (center + 1, 1)):
            while abs(y[p] + c * piv) <= (
                    bound if best is None else min(bound, best)):
                z = [a + c * b for a, b in zip(y, row)]
                rec(j + 1, z, max(settled, *map(abs, z[p:ends[j]])))
                c += step

    first = pivots[0] if ell else len(target)
    try:
        rec(0, target, max(map(abs, target[:first]), default=0))
    except _OverBudget:
        return None
    return best, sorted(points)
