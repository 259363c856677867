"""Piecewise-linear circle diffeomorphisms and isotopies.

Circle maps are stored as lifts: strictly increasing PL functions on one
period satisfying f(x+1) = f(x) + 1.  All breakpoints and values are exact
rationals, kept as integer numerators over one shared denominator, so
rotation angles, the basepoint quasimorphism mu, and its vector version nu
are computed exactly, and the strict defect inequalities can be tested
without floating-point noise.

An isotopy is its time grid, integer numerators over one denominator, and
its two end lifts.  The rotation angle mu of a basepoint trace depends only
on the isotopy's class up to homotopy rel endpoints.  Lifts of circle
homeomorphisms form a convex set, so that class is fixed by the start and
end lifts, and mu is the difference of the end lifts at the basepoint,
whatever the isotopy does in between.  Its lift path is taken straight
from the start lift to the end lift.

So what must be right is the end lifts.  Frames read from input are circle
maps with a chosen lift, so the public constructor requires frames to move
by less than 1/2 (in sup norm) per time step: the chosen lifts are then
the continuous ones, and the constructor keeps the first and the last.
``compose`` and ``invert`` keep the factors' sample grid and build the end
composites or the end inverses, not F_t o G_t in between, and ``refine``
cuts the grid finer.  No step of a derived isotopy is checked, and no
isotopy holds another.  A path joined from two isotopies' frames goes
through the public constructor, which checks every step.  The seeded
generators draw their frames as integer lift rows on one grid and check
on those rows every rule the constructors would; they build only the two
end lifts, so no generator builds a frame that the isotopy drops.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from math import lcm
from operator import lt, sub

from rotnorm._rat import Q, common, floor_q
from rotnorm.errors import (
    AmbiguousLift,
    DimensionMismatch,
    ValidationError,
    quoted,
)

#: Most digits in the shared denominator of a frame built from rationals,
#: as every input frame is, and of an isotopy's time grid.  Each is the lcm
#: of its input denominators, so it can grow with their number: the cost of
#: each lookup in the constructor's step check grows with the square of a
#: frame's, and the cost of reading the times with that of the grid's.
MAX_FRAME_DIGITS = 10_000


class PLCircleDiffeo:
    """Orientation-preserving circle diffeo, stored as one period of its lift.

    The breakpoints ``xs`` and lift values ``ys`` are kept as integer
    numerators ``xn``/``yn`` over one shared denominator ``den``, together
    with the integer run ``dx`` and rise ``dy`` of every segment (the last
    segment wraps to the first breakpoint one period on).  Every operation
    works on these integers and builds a rational only for the values it
    returns.  Every lift value looked up is an ``_eval`` pair (num, den):
    ``eval``, ``compose``, ``_gaps``, ``interpolate`` and ``mu`` all read
    the lift through it (``_eval_inv`` reads the inverse the same way).  At
    a map's own breakpoints its value is stored, so ``_gaps`` looks up each
    map only at the other's breakpoints.

    Maps built by ``compose`` use the least common denominator of their
    breakpoints and values.  Maps built by ``interpolate`` use lcm(L, D),
    where L is the lcm of the two maps' denominators and D the least common
    denominator of the interpolated values; that need not be least, as the
    breakpoints are not reduced.

    ``PLCircleDiffeo(xs, ys)`` takes rationals; ``PLCircleDiffeo(xn, yn,
    den)`` takes integer numerators over the positive integer ``den``.  Both
    are validated the same way.  The constructor builds ``dx`` and ``dy``
    once, each at its final length, and runs its ordering checks on them: a
    table built from ``map`` and then extended by its wrapped entry left
    one freed tuple per map on CPython's tuple free lists.
    """

    __slots__ = ("den", "xn", "yn", "dx", "dy")

    def __init__(self, xs, ys, den=None):
        if den is None:
            xs = list(xs)
            den, nums = common((Q(v).as_integer_ratio() for v in [*xs, *ys]),
                               ("circle.MAX_FRAME_DIGITS", MAX_FRAME_DIGITS))
            xs, ys = nums[:len(xs)], nums[len(xs):]
        xn, yn = tuple(xs), tuple(ys)
        if not xn or len(xn) != len(yn):
            raise ValidationError("need matching non-empty breakpoint lists")
        if den <= 0:
            raise ValidationError("common denominator must be positive")
        if xn[0] < 0 or xn[-1] >= den:
            raise ValidationError("breakpoints must lie in [0, 1)")
        # Once the breakpoints lie in [0, 1), the wrapped run is positive.
        dx = (*map(sub, xn[1:], xn), xn[0] + den - xn[-1])
        dy = (*map(sub, yn[1:], yn), yn[0] + den - yn[-1])
        if min(dx) <= 0:
            raise ValidationError("breakpoints must strictly increase")
        if min(dy[:-1], default=1) <= 0:
            raise ValidationError("lift values must strictly increase")
        if dy[-1] <= 0:
            raise ValidationError("lift must increase by less than 1 per period")
        self.den = den
        self.xn, self.yn, self.dx, self.dy = xn, yn, dx, dy

    @property
    def xs(self) -> tuple:
        return tuple(Q(x, self.den) for x in self.xn)

    @property
    def ys(self) -> tuple:
        return tuple(Q(y, self.den) for y in self.yn)

    @staticmethod
    def identity() -> "PLCircleDiffeo":
        return PLCircleDiffeo((0,), (0,), 1)

    @staticmethod
    def rotation(angle) -> "PLCircleDiffeo":
        return PLCircleDiffeo((Q(0),), (Q(angle),))

    def _eval(self, a, q):
        """Lift value at a/q (q > 0) as an unreduced pair (num, den)."""
        return _lookup(self.den, self.xn, self.yn, self.dx, self.dy, a, q)

    def _eval_inv(self, a, q):
        """Inverse lift value at a/q (q > 0) as an unreduced pair."""
        return _lookup(self.den, self.yn, self.xn, self.dy, self.dx, a, q)

    def eval(self, x):
        """Lift value at any real x (periodic extension)."""
        if type(x) is not Q:
            x = Q(x)
        return Q(*self._eval(x.numerator, x.denominator))

    def eval_inv(self, v):
        """Value of the inverse diffeo's lift at v."""
        if type(v) is not Q:
            v = Q(v)
        return Q(*self._eval_inv(v.numerator, v.denominator))

    def compose(self, other: "PLCircleDiffeo") -> "PLCircleDiffeo":
        """self after other: x -> self(other(x)).

        Breakpoints are other's plus the preimages under other of self's
        breakpoints, taken mod 1.  At other's breakpoint x_i the value is
        self(y_i), one forward lookup.  The preimage u of self's breakpoint
        b_j lies k whole periods above its residue u - k, where other takes
        the value b_j - k, so the value there is y_j - k with no lookup.
        Coincident points carry equal values and are kept once.
        """
        D, E = self.den, other.den
        pts = [(x, E) for x in other.xn]
        vals = [self._eval(y, E) for y in other.yn]
        for b, y in zip(self.xn, self.yn):
            t, d = other._eval_inv(b, D)
            k = t // d
            pts.append((t - k * d, d))
            vals.append((y - k * D, D))
        L, xs = common(pts)
        V, ys = common(vals)
        m = lcm(L, V)
        xs, ys = zip(*sorted(set(zip(xs, ys))))
        return PLCircleDiffeo([x * (m // L) for x in xs],
                              [y * (m // V) for y in ys], m)

    def inverse(self) -> "PLCircleDiffeo":
        D = self.den
        pairs = []
        for x, y in zip(self.xn, self.yn):
            n = y - y % D  # whole periods, over D
            pairs.append((y - n, x - n))
        pairs.sort()
        return PLCircleDiffeo([p[0] for p in pairs], [p[1] for p in pairs], D)

    def _gaps(self, other):
        """|self - other| at breakpoints, as unreduced pairs (num, den).

        self - other is PL and periodic, so its sup, the largest pair, is
        taken at a breakpoint of one map, where its value is stored: each
        map is read at its own breakpoints and the other looked up there.
        Maps on one grid yield only their largest difference, no lookup.
        """
        if self.den == other.den and self.xn == other.xn:
            yield max(map(abs, map(sub, self.yn, other.yn))), self.den
            return
        for f, g in ((self, other), (other, self)):
            D = f.den
            for x, y in zip(f.xn, f.yn):
                nb, db = g._eval(x, D)
                yield abs(y * db - nb * D), D * db

    def _displacement(self, other):
        """sup |self - other| as an unreduced pair: the largest ``_gaps``."""
        num, den = 0, 1
        for n, d in self._gaps(other):
            if n * den > num * d:
                num, den = n, d
        return num, den

    def displacement(self, other: "PLCircleDiffeo"):
        """sup |self - other| over the circle (attained at a breakpoint)."""
        return Q(*self._displacement(other))

    def interpolate(self, other: "PLCircleDiffeo", s) -> "PLCircleDiffeo":
        """Convex combination (1-s)*self + s*other of the lifts, s rational."""
        s = Q(s)
        sn, sd = s.numerator, s.denominator
        if sn == 0:
            return self
        if sn == sd:
            return other
        # The breakpoints of the combination are the union of both maps'.
        L = lcm(self.den, other.den)
        ms, mo = L // self.den, L // other.den
        xs = sorted({x * ms for x in self.xn}.union(x * mo for x in other.xn))
        D, ys = common([((sd - sn) * na * db + sn * nb * da, sd * da * db)
                        for (na, da), (nb, db) in
                        ((self._eval(X, L), other._eval(X, L)) for X in xs)])
        m = lcm(L, D)
        return PLCircleDiffeo([x * (m // L) for x in xs],
                              [y * (m // D) for y in ys], m)

    def __eq__(self, other):
        if not isinstance(other, PLCircleDiffeo):
            return NotImplemented
        return not any(n for n, _ in self._gaps(other))

    def __hash__(self):
        # Equal maps can list different breakpoints, so hash the lift at 0
        # and the points where the slope changes, which they share.
        dx, dy = self.dx, self.dy
        kinks = tuple(
            (Q(x, self.den), Q(y, self.den))
            for x, y, rx, ry, lx, ly in zip(self.xn, self.yn, dx, dy,
                                            dx[-1:] + dx, dy[-1:] + dy)
            if ry * lx != ly * rx
        )
        return hash((self.eval(0), kinks))

    def is_identity(self) -> bool:
        """True when the diffeo is the identity on the circle (the lift may
        be shifted by an integer)."""
        d = self.yn[0] - self.xn[0]
        if d % self.den:
            return False
        return all(y - x == d for x, y in zip(self.xn, self.yn))

    def __repr__(self):
        return f"PLCircleDiffeo(xs={self.xs}, ys={self.ys})"


def _check_step(num, den):
    """Raise AmbiguousLift unless a time step's move num/den is below 1/2."""
    if 2 * num >= den:
        raise AmbiguousLift("frames move by >= 1/2 within one time step; "
                            "resample the isotopy more finely")


def _lookup(D, us, vs, du, dv, a, q):
    """Value at a/q of the PL lift through the points (us, vs) / D, repeated
    with period 1 in both coordinates, as an unreduced pair (num, den)."""
    aD = a * D
    k = aD // q
    n = (k - us[0]) // D * D  # whole periods below us[0], over D
    i = bisect_right(us, k - n) - 1
    run = du[i]
    return (vs[i] + n) * q * run + (aD - (us[i] + n) * q) * dv[i], D * q * run


class PLIsotopy:
    """Time-sampled isotopy of PL circle diffeos: its grid and two end lifts.

    ``PLIsotopy(times, frames)`` takes rational times, strictly increasing
    from 0 to 1.  They are kept as integer numerators ``tn`` over their
    least common denominator ``tden``, as the frames keep their
    breakpoints, and ``tden`` has the frames' digit cap
    (``MAX_FRAME_DIGITS``), checked before any step; ``times`` gives them
    as rationals.

    The constructor refuses frames that move by >= 1/2 at some point
    between adjacent samples, and stops at the first: below that bound
    the frames' lifts are the continuous ones, so the first and last fix
    the class rel endpoints.  It keeps those two, ``start`` and ``end``;
    the lift path runs straight between them.  ``refine``, ``compose`` and
    ``invert`` build their result through ``_path`` and check no step.
    """

    __slots__ = ("tn", "tden", "start", "end", "__weakref__")

    def __init__(self, times, frames):
        tden, tn = common((Q(t).as_integer_ratio() for t in times),
                          ("circle.MAX_FRAME_DIGITS", MAX_FRAME_DIGITS))
        tn, frames = tuple(tn), tuple(frames)
        if len(tn) < 2 or len(tn) != len(frames):
            raise ValidationError("need at least 2 matching time samples")
        if tn[0] != 0 or tn[-1] != tden:
            raise ValidationError("isotopy must be parametrized over [0, 1]")
        if not all(map(lt, tn, tn[1:])):
            raise ValidationError("time samples must strictly increase")
        for fa, fb in zip(frames, frames[1:]):
            for gap in fa._gaps(fb):
                _check_step(*gap)
        self.tn, self.tden = tn, tden
        self.start, self.end = frames[0], frames[-1]

    @property
    def times(self) -> tuple:
        return tuple(Q(t, self.tden) for t in self.tn)

    @staticmethod
    def rotation(angle, samples: int | None = None) -> "PLIsotopy":
        """The rotation isotopy t -> rotation by t*angle."""
        angle = Q(angle)
        if samples is None:
            samples = max(2, 3 * (abs(floor_q(angle)) + 1))
        if samples < 2:
            raise ValidationError("a rotation isotopy needs at least 2 samples")
        times = [Q(j, samples - 1) for j in range(samples)]
        return PLIsotopy(times,
                         [PLCircleDiffeo.rotation(angle * t) for t in times])

    def frame_at(self, t) -> PLCircleDiffeo:
        """The frame at time t on the straight lift path from start to end."""
        t = Q(t)
        if t < 0 or t > 1:
            raise ValidationError("time outside [0, 1]")
        return self.start.interpolate(self.end, t)

    def is_based_loop(self) -> bool:
        return self.start.is_identity() and self.end.is_identity()


def mu(F: PLIsotopy, p):
    """Rotation angle of the basepoint trace t -> F_t(p).

    The trace has a continuous lift through the frame lifts (see the module
    docstring), so its rotation angle is the difference of the end lifts
    at p, evaluated on integers.
    """
    p = Q(p)
    a, q = p.numerator, p.denominator
    n1, d1 = F.end._eval(a, q)
    n0, d0 = F.start._eval(a, q)
    return Q(n1 * d0 - n0 * d1, d0 * d1)


def _path(tn, tden, start, end) -> PLIsotopy:
    """The isotopy sampled at the times tn / tden whose lift path runs
    straight from ``start`` to ``end``."""
    H = object.__new__(PLIsotopy)
    H.tn, H.tden, H.start, H.end = tuple(tn), tden, start, end
    return H


def compose(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    """The isotopy from F_0 o G_0 to F_1 o G_1 on the merged time grid.

    The grid is the union of both sample times over the least common
    multiple T of their denominators.  Its lift path runs straight between
    the end composites, not through F_t o G_t; both paths join the same end
    lifts, so they have the same class rel endpoints and the same ``mu``.
    """
    T = lcm(F.tden, G.tden)
    grid = sorted({t * (T // F.tden) for t in F.tn}
                  .union(t * (T // G.tden) for t in G.tn))
    return _path(grid, T, F.start.compose(G.start), F.end.compose(G.end))


def invert(F: PLIsotopy) -> PLIsotopy:
    """The isotopy from (F_0)^-1 to (F_1)^-1, sampled at F's times; as for
    ``compose``, its lift path runs straight between the end inverses."""
    return _path(F.tn, F.tden, F.start.inverse(), F.end.inverse())


def commutator(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    return compose(compose(F, G), compose(invert(F), invert(G)))


def refine(F: PLIsotopy, max_disp) -> PLIsotopy:
    """Insert samples until each step moves less than max_disp.

    Each step is cut into the fewest equal pieces that move less than
    max_disp.  F's lift path runs straight from its start to its end, so a
    step of length l moves exactly l * sup|end - start|, and each of its
    pieces moves that over the piece count.  The new times are integers
    over ``tden`` times the least common multiple of the piece counts.  The
    result keeps F's end lifts, so it has F's lift path and builds no map.
    """
    max_disp = Q(max_disp)
    if max_disp <= 0:
        raise ValidationError("max_disp must be positive")
    n, d = F.start._displacement(F.end)
    num, den = n * max_disp.denominator, d * max_disp.numerator * F.tden
    counts = [(t1 - t0) * num // den + 1  # fewest pieces below max_disp
              for t0, t1 in zip(F.tn, F.tn[1:])]
    P = lcm(*counts)
    tn: list = []
    for t0, t1, pieces in zip(F.tn, F.tn[1:], counts):
        tn += range(t0 * P, t1 * P, (t1 - t0) * (P // pieces))
    tn.append(F.tden * P)
    return _path(tn, F.tden * P, F.start, F.end)


class MultiIsotopy:
    """m independent circle isotopies with one basepoint per circle."""

    __slots__ = ("components", "basepoints")

    def __init__(self, components, basepoints):
        comps = tuple(components)
        pts = tuple(Q(p) for p in basepoints)
        if not comps or len(comps) != len(pts):
            raise ValidationError("components and basepoints must match")
        self.components = comps
        self.basepoints = pts

    def __repr__(self):
        return (f"MultiIsotopy(components={self.components!r}, "
                f"basepoints={self.basepoints!r})")

    @property
    def m(self) -> int:
        return len(self.components)


def nu(F: MultiIsotopy) -> tuple:
    """Per-component rotation angle at the basepoints."""
    return tuple(mu(c, p) for c, p in zip(F.components, F.basepoints))


def nu_hat(F: MultiIsotopy, A):
    """The coset nu(F) + A (a lattice-valued rotation invariant)."""
    from rotnorm.coset import AffineCoset

    if A.m != F.m:
        raise DimensionMismatch(f"lattice dimension {A.m} != components {F.m}")
    return AffineCoset.build(A, nu(F))


# ---------------------------------------------------------------------------
# Seeded random generators.  Each draws its maps on one integer grid (the
# breakpoints i/b and jitter in units of 1/(64*b)), so every map is built
# straight from integer numerators.  Every draw goes through ``_randint``.
# An isotopy's frames are drawn as rows of lift numerators (``_isotopy_rows``,
# ``_loop_rows``), step-checked as they are drawn and lift-checked by
# ``_ends``; only the start and end rows become maps.
# ---------------------------------------------------------------------------


def _randint(bits, a: int, b: int) -> int:
    """``rng.randint(a, b)`` drawn through ``bits = rng.getrandbits``.

    Returns a + r for the first draw r of n.bit_length() bits below
    n = b - a + 1.  This is the standard library's own rule, so the seeded
    stream and its values are those of ``randint``, without its argument
    checks and call chain.
    """
    n = b - a + 1
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return a + r


def random_diffeo(rng: random.Random) -> PLCircleDiffeo:
    """Random PL circle diffeo: jittered rotation, slopes within [3/4, 5/4]."""
    bits = rng.getrandbits
    b = _randint(bits, 2, 8)
    c = _randint(bits, -64, 64) * b  # over 64*b
    xs = [64 * i for i in range(b)]
    ys = [x + c + _randint(bits, -8, 8) for x in xs]
    return PLCircleDiffeo(xs, ys, 64 * b)


def _isotopy_rows(rng: random.Random):
    """The draws of ``random_isotopy``: (S, D, xs, rows).

    ``rows`` holds the lift numerators over D, on the breakpoints ``xs``, of
    the S frames after the identity, at the times 1/S, ..., 1.  Adjacent
    frames share one grid, so PLIsotopy's step rule reads 2 * max|dy| < D on
    the integers; it holds by construction (steps are <= 3/8), and a row
    that broke it would raise AmbiguousLift here.
    """
    bits = rng.getrandbits
    S = _randint(bits, 2, 6) - 1  # 2 to 6 samples
    b = _randint(bits, 2, 8)
    D = 64 * b
    xs = [64 * i for i in range(b)]
    rows = []
    prev = xs
    c = 0
    for _ in range(S):
        c += _randint(bits, -16, 16) * b
        ys = [x + c + _randint(bits, -8, 8) for x in xs]
        _check_step(max(map(abs, map(sub, ys, prev))), D)
        rows.append(ys)
        prev = ys
    return S, D, xs, rows


def _loop_rows(rng: random.Random, winding: int | None):
    """The draws of ``random_based_loop``: (S, D, xs, rows).

    ``rows`` holds the lift numerators over D, on the breakpoints ``xs``, of
    the S frames after the identity, at the times 1/S, ..., 1; the last is
    xs + w * D.  As in ``_isotopy_rows``, the step rule is checked on the
    integers: it holds by construction (a step moves at most
    2/9 + 1/16 + 1/8), and a row that broke it would raise AmbiguousLift
    here.
    """
    bits = rng.getrandbits
    w = winding if winding is not None else _randint(bits, -2, 2)
    S = 4 * abs(w) + 1
    b = _randint(bits, 2, 8)
    D = 64 * b * S  # lifts over 64*b*S: time steps are 1/S
    xs = [64 * S * i for i in range(b)]
    rows = []
    prev = xs
    for j in range(1, S + 1):
        if j == S:
            ys = [x + w * D for x in xs]
        else:
            c = 64 * b * w * j + _randint(bits, -2, 2) * b * S
            ys = [x + c + _randint(bits, -8, 8) * S for x in xs]
        _check_step(max(map(abs, map(sub, ys, prev))), D)
        rows.append(ys)
        prev = ys
    return S, D, xs, rows


def _ends(D, xs, rows):
    """The identity and the last row's map, on the breakpoints ``xs`` over
    D, once every row between them keeps PLCircleDiffeo's lift rules.

    The two maps are built, so the constructor checks the breakpoints and
    the last row; the rows between are checked here and never built.
    """
    for ys in rows[:-1]:
        if not all(map(lt, ys, ys[1:])):
            raise ValidationError("lift values must strictly increase")
        if ys[-1] - ys[0] >= D:
            raise ValidationError("lift must increase by less than 1 per period")
    return PLCircleDiffeo(xs, xs, D), PLCircleDiffeo(xs, rows[-1], D)


def random_isotopy(rng: random.Random) -> PLIsotopy:
    """Random isotopy starting at the identity; per-step movement <= 3/8."""
    S, D, xs, rows = _isotopy_rows(rng)
    return _path(range(S + 1), S, *_ends(D, xs, rows))


def _end_frame(rng: random.Random) -> PLCircleDiffeo:
    """``random_isotopy(rng).end`` with the same draws, building only that
    frame."""
    _, D, xs, rows = _isotopy_rows(rng)
    return PLCircleDiffeo(xs, rows[-1], D)


def random_based_loop(rng: random.Random, winding: int | None = None) -> PLIsotopy:
    """Random loop at the identity with a prescribed integer winding number."""
    S, D, xs, rows = _loop_rows(rng, winding)
    return _path(range(S + 1), S, *_ends(D, xs, rows))


#: Most trials one defect_experiment call runs: 10**6 trials take about 66 s
#: on a 2-vCPU host (Python 3.11), while larger counts would run for hours.
MAX_DEFECT_TRIALS = 10 ** 6


def defect_experiment(seed: int, trials: int) -> dict:
    """Randomized check of the strict quasimorphism defect inequalities.

    Per trial, draws isotopies F, G starting at the identity, a diffeo h,
    and basepoints p, q, then verifies exactly:
      |mu(hF) - mu(F)| < 1           |mu(Fh) - mu(F)| < 1
      |mu(FG) - mu(F) - mu(G)| < 1   mu(F^-1) = -mu(f^-1 F)
      |mu(F) + mu(F^-1)| < 1         |mu([F,G])| < 3
      |lambda(G_q) - lambda(G_p)| < 1
    mu of products is evaluated from endpoint frames: the composed isotopy's
    basepoint trace has a continuous lift through the frame lifts, so its
    rotation angle is the endpoint lift difference.  Every lift value is
    kept as an integer pair (num, den); only the maxima become rationals.
    Returns a report with per-inequality maxima and the violation count.
    More than ``MAX_DEFECT_TRIALS`` trials are refused.

    F and G are drawn as ``random_isotopy`` draws them, so the seeded
    instances do not change, but only their end frames f = F_1 and g = G_1
    are built.  mu from the identity depends only on the end lift, so the
    intermediate frames are drawn (to keep the stream) and step-checked by
    ``_isotopy_rows``, never built: a trial makes three validated maps.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    if trials > MAX_DEFECT_TRIALS:
        raise ValidationError(
            f"trials {quoted(trials)} exceeds the cap "
            f"circle.MAX_DEFECT_TRIALS = {MAX_DEFECT_TRIALS}")
    rng = random.Random(seed)
    names = ("left_mult", "right_mult", "product", "inverse_sum",
             "commutator", "basepoint_change")
    limits = {"left_mult": 1, "right_mult": 1, "product": 1,
              "inverse_sum": 1, "commutator": 3, "basepoint_change": 1}
    bounds = [limits[name] for name in names]
    maxima = [(0, 1)] * len(names)
    violations = 0
    bits = rng.getrandbits
    for _ in range(trials):
        f = _end_frame(rng)
        g = _end_frame(rng)
        h = random_diffeo(rng)
        p = (_randint(bits, 0, 63), 64)
        qpt = (_randint(bits, 0, 63), 64)
        f_p = f._eval(*p)
        g_p = g._eval(*p)
        h_p = h._eval(*p)
        finv_p = f._eval_inv(*p)
        # signed sums, in the order of names: mu_f = f(p) - p, mu_g = g(p) - p
        obs = (
            _sum((h._eval(*f_p), p), (h_p, f_p)),
            _sum((f._eval(*h_p), p), (h_p, f_p)),
            _sum((f._eval(*g_p), p), (f_p, g_p)),
            _sum((f_p, finv_p), (p, p)),
            _sum((f._eval(*g._eval(*f._eval_inv(*g._eval_inv(*p)))),), (p,)),
            _sum((g._eval(*qpt), p), (qpt, g_p)),
        )
        # mu(F^-1) = -mu(f^-1 F), evaluated through the actual lifts:
        # (f^-1(p) - p) + (f^-1(f(p)) - f^-1(p)) must vanish.
        if _sum((finv_p, f._eval_inv(*f_p)), (p, finv_p))[0] != 0:
            violations += 1
        for k, (n, d) in enumerate(obs):
            n = abs(n)
            mn, md = maxima[k]
            if n * md > mn * d:
                maxima[k] = (n, d)
            if n >= bounds[k] * d:
                violations += 1
    return {
        "seed": seed,
        "trials": trials,
        "violations": violations,
        "max_observed": {name: Q(*m) for name, m in zip(names, maxima)},
        "limits": limits,
    }


def _sum(plus, minus):
    """sum(plus) - sum(minus) of (num, den) pairs, as an unreduced pair."""
    num, den = 0, 1
    for n, d in plus:
        num, den = num * d + n * den, den * d
    for n, d in minus:
        num, den = num * d - n * den, den * d
    return num, den
