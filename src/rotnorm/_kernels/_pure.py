"""Pure-Python kernels on plain ints and bytes.

Permutations are passed as bytes objects (degree <= 12, so every image fits
in one byte), and ``closure_bytes`` forms each product with one
``bytes.translate`` call; ``cvp_enumerate``, the one CVP kernel, works on
exact Python integers of any size.
"""

from __future__ import annotations

BACKEND = "pure"


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
):
    """Exact integer l-infinity closest-point enumeration on a coset.

    Minimizes max|target + sum_j c_j * basis[j]| over integer coefficients.
    `bound` is a certified initial search radius: some optimal point has all
    pivot coordinates within it.  Branch-and-bound: the basis rows are upper
    triangular with increasing pivots, so once row j's coefficient is chosen
    the coordinate pivots[j] is final and can be capped by the best norm seen
    so far.  Coefficients are explored center-out so the radius shrinks fast.

    Returns (best_norm, points) where points is the sorted list of all
    attaining integer vectors.
    """
    ell = len(basis)
    m = len(target)
    # Columns before the first pivot are never touched: a hard norm floor.
    first_piv = pivots[0] if ell else m
    floor_norm = max((abs(target[i]) for i in range(first_piv)), default=0)
    # After choosing row j's coefficient, every column up to (but excluding)
    # the next pivot is final: later rows vanish there.
    final_cols = [
        range(pivots[j], pivots[j + 1] if j + 1 < ell else m)
        for j in range(ell)
    ]
    y = list(target)  # current candidate: target + partial lattice sum
    best: list[int | None] = [None]
    points: list[tuple[int, ...]] = []

    def rec(j: int, settled: int) -> None:
        if best[0] is not None and max(settled, floor_norm) > best[0]:
            return
        if j == ell:
            norm = max(settled, floor_norm)
            if best[0] is None or norm < best[0]:
                best[0] = norm
                points.clear()
                points.append(tuple(y))
            elif norm == best[0]:
                points.append(tuple(y))
            return
        p = pivots[j]
        piv = basis[j][p]
        row = basis[j]

        def radius() -> int:
            return bound if best[0] is None else min(bound, best[0])

        r0 = radius()
        # c-interval with |y[p] + c*piv| <= r0 (may shrink as best improves)
        lo = -((r0 + y[p]) // piv)  # ceil((-r0 - y[p]) / piv)
        hi = (r0 - y[p]) // piv
        if lo > hi:
            return
        center = min(max(-((2 * y[p] + piv) // (2 * piv)), lo), hi)

        def visit(c: int) -> bool:
            val = y[p] + c * piv
            if abs(val) > radius():
                return False  # |val| is monotone away from center: stop side
            if c:
                for i in range(m):
                    y[i] += c * row[i]
            done = max(abs(y[i]) for i in final_cols[j])
            rec(j + 1, max(settled, done))
            if c:
                for i in range(m):
                    y[i] -= c * row[i]
            return True

        visit(center)
        c = center - 1
        while c >= lo and visit(c):
            c -= 1
        c = center + 1
        while c <= hi and visit(c):
            c += 1

    rec(0, 0)
    points.sort()
    return best[0], points

