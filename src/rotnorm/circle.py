"""Piecewise-linear circle diffeomorphisms and isotopies.

Circle maps are stored as lifts: strictly increasing PL functions on one
period satisfying f(x+1) = f(x) + 1.  All breakpoints and values are exact
rationals, kept as integer numerators over one shared denominator, so
rotation angles, the basepoint quasimorphism mu, and its vector version nu
are computed exactly, and the strict defect inequalities can be tested
without floating-point noise.

An isotopy is a list of sample times, integer numerators over one
denominator, and its knots: its frames at some of those times, always
including 0 and 1.  Its lift path runs straight, in lift space, from each
knot to the next.  The rotation angle mu of a basepoint trace depends only
on the isotopy's class up to homotopy rel endpoints.  Lifts of circle
homeomorphisms form a convex set, so that class is fixed by the start and
end lifts, and mu is the difference of the end knots' lifts at the
basepoint, whatever the isotopy does in between.

So what must be right is the end lifts.  Frames read from input are circle
maps with a chosen lift, so the public constructor makes every sample a
knot and requires frames to move by less than 1/2 (in sup norm) per time
step: the chosen lifts are then the continuous ones.  ``compose`` and
``invert`` keep the factors' sample grid but hold only two knots, the end
composites or the end inverses.  So a composite's frames in between lie on
the straight lift path between its end composites, not at F_t o G_t; both
paths join the same end lifts.  ``refine`` keeps its factor's knots on a
finer grid, and ``concat`` joins both knot lists.  No step of a derived
isotopy is checked, and no isotopy holds another.  ``frames`` builds each
sample's frame from the knots when it is read.
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
    FrameMismatch,
    ValidationError,
    quoted,
)

class PLCircleDiffeo:
    """Orientation-preserving circle diffeo, stored as one period of its lift.

    The breakpoints ``xs`` and lift values ``ys`` are kept as integer
    numerators ``xn``/``yn`` over one shared denominator ``den``, together
    with the integer run ``dx`` and rise ``dy`` of every segment (the last
    segment wraps to the first breakpoint one period on).  Every operation
    works on these integers and builds a rational only for the values it
    returns.  Every lift value is an ``_eval`` pair (num, den): ``eval``,
    ``compose``, ``_displacement``, ``interpolate`` and ``mu`` all read the
    lift through it (``_eval_inv`` reads the inverse the same way).

    Maps built by ``compose`` use the least common denominator of their
    breakpoints and values.  Maps built by ``interpolate`` use lcm(L, D),
    where L is the lcm of the two maps' denominators and D the least common
    denominator of the interpolated values; that need not be least, as the
    breakpoints are not reduced.

    ``PLCircleDiffeo(xs, ys)`` takes rationals; ``PLCircleDiffeo(xn, yn,
    den)`` takes integer numerators over the positive integer ``den``.  Both
    are validated the same way.
    """

    __slots__ = ("den", "xn", "yn", "dx", "dy")

    def __init__(self, xs, ys, den=None):
        if den is None:
            xs = list(xs)
            den, nums = common(Q(v).as_integer_ratio() for v in [*xs, *ys])
            xs, ys = nums[:len(xs)], nums[len(xs):]
        if not xs or len(xs) != len(ys):
            raise ValidationError("need matching non-empty breakpoint lists")
        if den <= 0:
            raise ValidationError("common denominator must be positive")
        if xs[0] < 0 or xs[-1] >= den:
            raise ValidationError("breakpoints must lie in [0, 1)")
        if not all(map(lt, xs, xs[1:])):
            raise ValidationError("breakpoints must strictly increase")
        if not all(map(lt, ys, ys[1:])):
            raise ValidationError("lift values must strictly increase")
        if ys[-1] >= ys[0] + den:
            raise ValidationError("lift must increase by less than 1 per period")
        self.den = den
        self.xn = tuple(xs)
        self.yn = tuple(ys)
        self.dx = tuple(map(sub, self.xn[1:], self.xn)) + (xs[0] + den - xs[-1],)
        self.dy = tuple(map(sub, self.yn[1:], self.yn)) + (ys[0] + den - ys[-1],)

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

    def _merged(self, other):
        """Both lifts at the union of their breakpoints, through ``_eval``.

        Returns (L, points, mine, theirs): the sorted integer points over
        the common denominator L, and each map's ``_eval`` pair at them.
        """
        L = lcm(self.den, other.den)
        ms, mo = L // self.den, L // other.den
        points = sorted({x * ms for x in self.xn}.union(x * mo for x in other.xn))
        return (L, points, [self._eval(X, L) for X in points],
                [other._eval(X, L) for X in points])

    def _displacement(self, other):
        """sup |self - other| as an unreduced pair (num, den).

        Maps on one grid compare their values directly; others compare
        their ``_merged`` pairs.
        """
        if self.den == other.den and self.xn == other.xn:
            return max(map(abs, map(sub, self.yn, other.yn))), self.den
        _, _, mine, theirs = self._merged(other)
        num, den = 0, 1
        for (na, da), (nb, db) in zip(mine, theirs):
            n, d = abs(na * db - nb * da), da * db
            if n * den > num * d:
                num, den = n, d
        return num, den

    def displacement(self, other: "PLCircleDiffeo"):
        """sup |self - other| over the circle (attained at a breakpoint)."""
        return Q(*self._displacement(other))

    def interpolate(self, other: "PLCircleDiffeo", s) -> "PLCircleDiffeo":
        """Convex combination (1-s)*self + s*other of the lifts.

        ``s`` is a rational, or an integer pair (num, den) with den > 0.
        """
        if type(s) is tuple:
            sn, sd = s
        else:
            s = Q(s)
            sn, sd = s.numerator, s.denominator
        if sn == 0:
            return self
        if sn == sd:
            return other
        L, xs, mine, theirs = self._merged(other)
        D, ys = common([((sd - sn) * na * db + sn * nb * da, sd * da * db)
                        for (na, da), (nb, db) in zip(mine, theirs)])
        m = lcm(L, D)
        return PLCircleDiffeo([x * (m // L) for x in xs],
                              [y * (m // D) for y in ys], m)

    def __eq__(self, other):
        if not isinstance(other, PLCircleDiffeo):
            return NotImplemented
        return self._displacement(other)[0] == 0

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
    """Time-sampled isotopy of PL circle diffeos with interpolated lifts.

    The sample times are kept as strictly increasing integer numerators
    ``tn`` over one positive denominator ``tden``, running from 0 to
    ``tden``, as the frames keep their breakpoints; ``times`` gives them as
    rationals.  ``PLIsotopy(times, frames)`` takes rational times;
    ``PLIsotopy(tn, frames, tden)`` takes integer numerators.  Both are
    validated the same way.

    The isotopy holds its knots: frames at some of its sample times, always
    0 and 1, and its lift path runs straight between adjacent knots.  The
    public constructor makes every sample a knot and refuses frames that
    move by >= 1/2 between adjacent samples: below that threshold the
    frames' lifts are the continuous ones, so they fix the lift path.
    ``refine``, ``compose``, ``invert`` and ``concat`` build their result
    through ``_knotted`` and check no step.  ``frames`` builds each
    sample's frame from the knots on every read.
    """

    __slots__ = ("tn", "tden", "_kn", "_knots", "__weakref__")

    def __init__(self, times, frames, tden=None):
        if tden is None:
            tden, times = common(Q(t).as_integer_ratio() for t in times)
        tn = tuple(times)
        frames = tuple(frames)
        if len(tn) < 2 or len(tn) != len(frames):
            raise ValidationError("need at least 2 matching time samples")
        if tden <= 0:
            raise ValidationError("time denominator must be positive")
        if tn[0] != 0 or tn[-1] != tden:
            raise ValidationError("isotopy must be parametrized over [0, 1]")
        if not all(map(lt, tn, tn[1:])):
            raise ValidationError("time samples must strictly increase")
        for fa, fb in zip(frames, frames[1:]):
            num, den = fa._displacement(fb)
            if 2 * num >= den:
                raise AmbiguousLift(
                    "frames move by >= 1/2 within one time step; "
                    "resample the isotopy more finely"
                )
        self.tn = self._kn = tn
        self.tden = tden
        self._knots = frames

    @property
    def frames(self) -> tuple:
        if len(self._kn) == len(self.tn):
            return self._knots
        return tuple(self._frame(t, self.tden) for t in self.tn)

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
        S = samples - 1
        return PLIsotopy(range(samples), [PLCircleDiffeo.rotation(angle * Q(j, S))
                                          for j in range(samples)], S)

    def frame_at(self, t) -> PLCircleDiffeo:
        t = Q(t)
        if t < 0 or t > 1:
            raise ValidationError("time outside [0, 1]")
        return self._frame(t.numerator, t.denominator)

    def _frame(self, a, q) -> PLCircleDiffeo:
        """The frame at the time a/q, integers with q > 0 and 0 <= a <= q."""
        kn, knots = self._kn, self._knots
        a *= self.tden  # the time is a / (q * tden)
        i = bisect_right(kn, a // q) - 1
        if i >= len(kn) - 1:
            return knots[-1]
        r = a - kn[i] * q
        if r == 0:
            return knots[i]
        return knots[i].interpolate(knots[i + 1], (r, (kn[i + 1] - kn[i]) * q))

    def is_based_loop(self) -> bool:
        return self._knots[0].is_identity() and self._knots[-1].is_identity()


def mu(F: PLIsotopy, p):
    """Rotation angle of the basepoint trace t -> F_t(p).

    The trace has a continuous lift through the frame lifts (see the module
    docstring), so its rotation angle is the difference of the end frames'
    lifts at p, evaluated on integers.
    """
    p = Q(p)
    a, q = p.numerator, p.denominator
    n1, d1 = F._knots[-1]._eval(a, q)
    n0, d0 = F._knots[0]._eval(a, q)
    return Q(n1 * d0 - n0 * d1, d0 * d1)


def _knotted(tn, tden, kn, knots) -> PLIsotopy:
    """The isotopy sampled at the times tn / tden whose lift path runs
    straight between the frames ``knots`` at the times kn / tden."""
    H = object.__new__(PLIsotopy)
    H.tn, H.tden, H._kn, H._knots = tuple(tn), tden, tuple(kn), tuple(knots)
    return H


def compose(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    """The isotopy from F_0 o G_0 to F_1 o G_1 on the merged time grid.

    The grid is the union of both sample times over the least common
    multiple T of their denominators.  The knots are the two end
    composites, so the frames in between lie on the straight lift path
    from one to the other, not at F_t o G_t; ``F.frame_at(t).compose(
    G.frame_at(t))`` gives the pointwise frame.  Both paths join the same
    end lifts, so they have the same class rel endpoints and the same
    ``mu``.
    """
    T = lcm(F.tden, G.tden)
    grid = sorted({t * (T // F.tden) for t in F.tn}
                  .union(t * (T // G.tden) for t in G.tn))
    return _knotted(grid, T, (0, T), (F._knots[0].compose(G._knots[0]),
                                      F._knots[-1].compose(G._knots[-1])))


def invert(F: PLIsotopy) -> PLIsotopy:
    """The isotopy from (F_0)^-1 to (F_1)^-1, sampled at F's times.

    As for ``compose``, the knots are the two end inverses, and the frames
    in between lie on the straight lift path between them;
    ``F.frame_at(t).inverse()`` gives the pointwise frame.
    """
    return _knotted(F.tn, F.tden, (0, F.tden),
                    (F._knots[0].inverse(), F._knots[-1].inverse()))


def concat(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    """Run F on [0, 1/2], then G on [1/2, 1]; needs F_1 = G_0 on the circle.

    The two halves may carry lifts differing by an integer d (e.g. after a
    full turn), read at 0 from the end lifts' ``_eval`` pairs by floor
    division.  G's knots are shifted by d, so the concatenated lift path
    stays continuous, and joined to F's; the shifted start knot must equal
    F's end knot, or the frames do not meet.
    """
    (n1, d1), (n0, d0) = F._knots[-1]._eval(0, 1), G._knots[0]._eval(0, 1)
    d = (n1 * d0 - n0 * d1) // (d0 * d1)
    shifted = [k if d == 0 else PLCircleDiffeo(k.xn, [y + d * k.den for y in k.yn], k.den)
               for k in G._knots]
    if shifted[0] != F._knots[-1]:
        raise FrameMismatch("end frame of the first isotopy must equal the "
                            "start frame of the second")
    T = lcm(F.tden, G.tden)  # over 2T: F on [0, T], G on [T, 2T]
    f, g = T // F.tden, T // G.tden
    return _knotted([t * f for t in F.tn] + [T + t * g for t in G.tn[1:]], 2 * T,
                    [t * f for t in F._kn] + [T + t * g for t in G._kn[1:]],
                    F._knots + tuple(shifted[1:]))


def commutator(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    return compose(compose(F, G), compose(invert(F), invert(G)))


def refine(F: PLIsotopy, max_disp) -> PLIsotopy:
    """Insert samples until each step moves less than max_disp.

    Each step is cut into the fewest equal pieces that move less than
    max_disp.  F's lift path is straight between its knots, so a step of
    length l within the knot step from K_a to K_b, of length L, moves
    exactly (l / L) * sup|K_b - K_a|, and each of its pieces moves that
    over the piece count.  The new times are integers over ``tden`` times
    the least common multiple of the piece counts.

    The result keeps F's knots, so it has F's lift path and builds no frame.
    """
    max_disp = Q(max_disp)
    if max_disp <= 0:
        raise ValidationError("max_disp must be positive")
    mn, md = max_disp.numerator, max_disp.denominator
    kn, knots = F._kn, F._knots
    moves = [(n * md, d * mn * (k1 - k0))  # per unit of time, over max_disp
             for (n, d), k0, k1 in zip(map(PLCircleDiffeo._displacement,
                                           knots, knots[1:]), kn, kn[1:])]
    counts, j = [], 0
    for t0, t1 in zip(F.tn, F.tn[1:]):
        j += t0 == kn[j + 1]
        num, den = moves[j]
        counts.append((t1 - t0) * num // den + 1)  # fewest pieces below max_disp
    P = lcm(*counts)
    tn: list = []
    for t0, t1, pieces in zip(F.tn, F.tn[1:], counts):
        tn += range(t0 * P, t1 * P, (t1 - t0) * (P // pieces))
    T = F.tden * P
    tn.append(T)
    return _knotted(tn, T, [k * P for k in kn], knots)


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
    """The draws of ``random_isotopy``: (samples, D, xs, rows).

    ``rows`` holds the lift numerators over D, on the breakpoints ``xs``, of
    the samples - 1 frames after the identity.  Adjacent frames share one
    grid, so PLIsotopy's step rule reads 2 * max|dy| < D on the integers;
    it holds by construction (steps are <= 3/8), and a row that broke it
    would raise AmbiguousLift here.
    """
    bits = rng.getrandbits
    samples = _randint(bits, 2, 6)
    b = _randint(bits, 2, 8)
    D = 64 * b
    xs = [64 * i for i in range(b)]
    rows = []
    prev = xs
    c = 0
    for _ in range(samples - 1):
        c += _randint(bits, -16, 16) * b
        ys = [x + c + _randint(bits, -8, 8) for x in xs]
        if 2 * max(map(abs, map(sub, ys, prev))) >= D:
            raise AmbiguousLift("random isotopy frames move by >= 1/2 in one step")
        rows.append(ys)
        prev = ys
    return samples, D, xs, rows


def random_isotopy(rng: random.Random) -> PLIsotopy:
    """Random isotopy starting at the identity; per-step movement <= 3/8."""
    samples, D, xs, rows = _isotopy_rows(rng)
    frames = [PLCircleDiffeo(xs, ys, D) for ys in [xs, *rows]]
    return PLIsotopy(range(samples), frames, samples - 1)


def _end_frame(rng: random.Random) -> PLCircleDiffeo:
    """``random_isotopy(rng).frames[-1]`` with the same draws, building only
    that frame."""
    _, D, xs, rows = _isotopy_rows(rng)
    return PLCircleDiffeo(xs, rows[-1], D)


def random_based_loop(rng: random.Random, winding: int | None = None) -> PLIsotopy:
    """Random loop at the identity with a prescribed integer winding number."""
    bits = rng.getrandbits
    w = winding if winding is not None else _randint(bits, -2, 2)
    samples = 4 * abs(w) + 2
    b = _randint(bits, 2, 8)
    S = samples - 1
    D = 64 * b * S  # lifts over 64*b*S: time steps are 1/S
    xs = [64 * S * i for i in range(b)]
    frames = [PLCircleDiffeo(xs, xs, D)]
    for j in range(1, samples):
        if j == S:
            c = w * D
            jitter = [0] * b
        else:
            c = 64 * b * w * j + _randint(bits, -2, 2) * b * S
            jitter = [_randint(bits, -8, 8) * S for _ in range(b)]
        ys = [x + c + e for x, e in zip(xs, jitter)]
        frames.append(PLCircleDiffeo(xs, ys, D))
    return PLIsotopy(range(samples), frames, S)


#: Most trials one defect_experiment call runs: 10**6 trials take about 100 s
#: on a 2-vCPU host, while larger counts would run for hours.
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
            f"MAX_DEFECT_TRIALS = {MAX_DEFECT_TRIALS}")
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
