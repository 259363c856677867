"""Pure-Python kernels: permutations as bytes (degree <= 12, so every image
fits in one byte; ``closure_bytes`` forms each product with one
``bytes.translate`` call), and the one CVP kernel on exact integers.
"""

from __future__ import annotations


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
    that of S8 14-26 ms.  No engine calls it (``groups.generate_group``
    closes a group class by class); perfbench times it (``closure_s8_s``).
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
    `s` must again lie in `elements`.  ``groups.word_norm`` runs its BFS over
    conjugacy classes instead; perfbench times this one
    (``bfs_s8_transpositions``).
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


def _window(y: list[int], row: list[int], p: int, end: int, r: int):
    """(lo, hi): the integers c with |y[i] + c*row[i]| <= r for p <= i < end,
    lo > hi if none; row[p] > 0 is the pivot, so the range is finite."""
    lo, hi = -((r + y[p]) // row[p]), (r - y[p]) // row[p]
    for i in range(p + 1, end):
        a, v = row[i], y[i]
        if a:  # with s = sign(a)*r: ceil((-s - v)/a) <= c <= floor((s - v)/a)
            s = r if a > 0 else -r
            lo, hi = max(lo, -((s + v) // a)), min(hi, (s - v) // a)
            if lo > hi:
                break
        elif abs(v) > r:
            return 1, 0
    return lo, hi


def cvp_enumerate(basis: list[list[int]], pivots: list[int],
                  target: list[int], bound: int, max_nodes=None):
    """Exact integer l-infinity closest-point enumeration on a coset.

    Minimizes max|target + sum_j c_j * basis[j]| over integer coefficients.
    `bound` must be at least the optimum norm (the norm of any point of the
    coset is), and ``best`` starts there.  Branch-and-bound: the basis rows
    are upper triangular with increasing pivots, so when ``rec(j, y)``
    chooses row j's coefficient c, the coordinates before pivots[j] are
    final and c settles those up to the next pivot.  Each settled
    |y[i] + c*row[i]| is convex in c, so the c that keep all of them within
    ``best`` form an interval, ``_window``.  It is walked from the c nearest
    the pivot's center down, then up, and shrunk whenever a leaf lowers
    ``best`` (emptied if a final coordinate now exceeds it): every c walked
    is a node entered that can still attain the optimum, so the node cap
    bounds the work.

    Returns (best_norm, points), points the sorted list of all attaining
    integer vectors, or None once the search has entered more than
    ``max_nodes`` nodes (one per partial choice of coefficients).  A
    ``bound`` below the optimum leaves no point within it: the search then
    raises ValueError rather than return the bound as the norm.
    """
    ell, ends = len(basis), [*pivots[1:], len(target)]
    best, points, budget = bound, [], max_nodes

    def rec(j: int, y: list[int]) -> None:
        nonlocal best, points, budget
        if budget is not None:
            budget -= 1
            if budget < 0:
                raise _OverBudget
        if j == ell:
            norm = max(map(abs, y), default=0)
            if norm < best:
                best, points = norm, []
            if norm == best:
                points.append(tuple(y))
            return
        row, p, end, r = basis[j], pivots[j], ends[j], best
        lo, hi = _window(y, row, p, end, r)
        center = -((2 * y[p] + row[p]) // (2 * row[p]))
        start = lo if center < lo else hi if center > hi else center
        for step in (-1, 1):
            c = start if step < 0 else start + 1 if start >= lo else lo
            while lo <= c <= hi:
                rec(j + 1, [a + c * b for a, b in zip(y, row)])
                c += step
                if best < r:
                    r = best
                    lo, hi = (_window(y, row, p, end, r)
                              if max(map(abs, y[:p]), default=0) <= r else (1, 0))
                    c = min(c, hi) if step < 0 else max(c, lo)

    try:
        rec(0, target)
    except _OverBudget:
        return None
    if not points:
        raise ValueError(f"bound {bound} is below the optimum norm")
    return best, sorted(points)
