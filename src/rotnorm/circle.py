"""Piecewise-linear circle diffeomorphisms and isotopies.

Circle maps are stored as lifts: strictly increasing PL functions on one
period satisfying f(x+1) = f(x) + 1.  All breakpoints and values are exact
rationals, kept as integer numerators over one shared denominator, so
rotation angles, the basepoint quasimorphism mu, and its vector version nu
are computed exactly, and the strict defect inequalities can be tested
without floating-point noise.

An isotopy is a finite list of time-sampled frames with lift-space convex
interpolation in between; its times are integer numerators over one
denominator too.  Frames must move by less than 1/2 (in sup norm) per time
step; this pins down the continuous lift of any basepoint trace, so mu is
simply the difference of the end frames' lifts at the basepoint.
Composition looks up each factor's frame at every time of the merged
grid, and composing two maps costs one lookup per breakpoint.

Each isotopy records the exact displacement of the steps it measured, and
``compose`` proves most steps of F_t o G_t below 1/2 from those records,
without walking the composite frames.  The certificate: a step [a, b] of
the merged grid lies within one step i of F and one step j of G, and
frames move linearly (in lift space) inside a step, so |F_b - F_a| =
(b - a) * sigmaF_i and |G_b - G_a| = (b - a) * sigmaG_j, where sigma is the
step's recorded displacement divided by its duration.  Then

    |F_b o G_b - F_a o G_a| <= |F_b o G_b - F_b o G_a| + |F_b o G_a - F_a o G_a|
                            <= Lip(F_b) * |G_b - G_a| + |F_b - F_a|,

and Lip(F_b) is at most the largest segment slope over F's sample frames:
on each segment where both neighbouring frames are linear, the slope of an
interpolant is a convex combination of theirs.  When this bound, computed
in integers, is below 1/2 the step is proven; otherwise it is measured
exactly.

Frames are built when they are first read.  An isotopy made by the public
constructor holds all its frames.  ``refine``, ``compose`` and ``invert``
give their result one private ``_source(a, q)``, the frame at the time a/q
built from the factors, and the result fills a hole from it on the hole's
first read.  ``mu`` and ``is_based_loop`` read only the end frames, so a
loop refined, composed and measured builds no interpolated or composite
frame in between.  Measuring a step builds its two frames, and ``frames``
fills every hole.
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
)

HALF = Q(1, 2)


class PLCircleDiffeo:
    """Orientation-preserving circle diffeo, stored as one period of its lift.

    The breakpoints ``xs`` and lift values ``ys`` are kept as integer
    numerators ``xn``/``yn`` over one shared denominator ``den``, together
    with the integer run ``dx`` and rise ``dy`` of every segment (the last
    segment wraps to the first breakpoint one period on).  Every operation
    works on these integers and builds a rational only for the values it
    returns.  Maps built by ``compose`` use the least common denominator of
    their breakpoints and values.  Maps built by ``interpolate`` use lcm(L,
    D), where L is the lcm of the two maps' denominators and D the least
    common denominator of the interpolated values; that need not be least,
    as the breakpoints are not reduced.

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

    def _sample(self, L, points):
        """Lift values at the sorted integer points in [0, L) over L, a
        multiple of ``den``: pairs (P, r) with value P / (r * L)."""
        m = L // self.den
        xn = [x * m for x in self.xn]
        yn = [y * m for y in self.yn]
        last = len(xn) - 1
        i = -1  # points below xn[0] lie on the wrapped last segment
        bx, by = xn[-1] - L, yn[-1] - L
        out = []
        for X in points:
            while i < last and xn[i + 1] <= X:
                i += 1
                bx, by = xn[i], yn[i]
            dx = self.dx[i]
            out.append((by * dx + (X - bx) * self.dy[i], dx))
        return out

    def _merged(self, other):
        """Both lifts on the union of their breakpoints, walked once.

        Returns (L, points, mine, theirs): the sorted integer points over
        the common denominator L, and ``_sample`` pairs for each map.
        """
        L = lcm(self.den, other.den)
        ms, mo = L // self.den, L // other.den
        xa = [x * ms for x in self.xn]
        if xa == [x * mo for x in other.xn]:
            return (L, xa, [(y * ms, 1) for y in self.yn],
                    [(y * mo, 1) for y in other.yn])
        points = sorted(set(xa).union(x * mo for x in other.xn))
        return L, points, self._sample(L, points), other._sample(L, points)

    def _displacement(self, other):
        """sup |self - other| as an unreduced pair (num, den)."""
        if self.den == other.den and self.xn == other.xn:
            return max(map(abs, map(sub, self.yn, other.yn))), self.den
        L, _, mine, theirs = self._merged(other)
        num, den = 0, 1
        for (pa, ra), (pb, rb) in zip(mine, theirs):
            n, d = abs(pa * rb - pb * ra), ra * rb
            if n * den > num * d:
                num, den = n, d
        return num, den * L

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
        D, ys = common([((sd - sn) * pa * rb + sn * pb * ra, sd * ra * rb * L)
                        for (pa, ra), (pb, rb) in zip(mine, theirs)])
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


MAX_STEP_DISPLACEMENT = HALF


def _small(step) -> bool:
    """True when the pair (num, den) is below MAX_STEP_DISPLACEMENT."""
    lim = MAX_STEP_DISPLACEMENT
    return step[0] * lim.denominator < lim.numerator * step[1]


class PLIsotopy:
    """Time-sampled isotopy of PL circle diffeos with interpolated lifts.

    The sample times are kept as strictly increasing integer numerators
    ``tn`` over one positive denominator ``tden``, running from 0 to
    ``tden``, as the frames keep their breakpoints; ``times`` gives them as
    rationals.  ``PLIsotopy(times, frames)`` takes rational times;
    ``PLIsotopy(tn, frames, tden)`` takes integer numerators.  Both are
    validated the same way.

    Construction refuses inputs whose frames move by >= 1/2 between adjacent
    samples: below that threshold the continuous lift of every point trace
    is unambiguous, so rotation angles are exact endpoint differences.

    The isotopy records the exact displacement of every step it measured,
    as an unreduced pair (num, den); ``_step(i)`` reads it.  The public
    constructor measures every step.  The module's own builders pass the
    record in through the private ``_disp``: ``refine`` gives each of its
    pieces the exact ``d / pieces`` it moves, and ``compose`` leaves a step
    it proved below 1/2 by the slope bound (see the module docstring) as
    None, which ``_step`` measures when it is first needed.

    Frames are built on first read.  The public constructor takes whole
    frames.  ``refine``, ``compose`` and ``invert`` pass frames with holes
    (None) and the private ``_source(a, q)``, which builds the frame at the
    time a/q from their factors; the first ``_at(i)`` fills hole i with
    ``_source(tn[i], tden)``.  ``frames`` fills every hole, and once none is
    left the source is dropped, so the isotopy no longer holds its factors.
    ``_slope()`` is the largest segment slope over the frames, which
    ``compose`` reads as the Lipschitz bound of its outer factor; ``refine``
    passes its parent's value in through ``_lip``.
    """

    __slots__ = ("tn", "tden", "_frames", "_source", "_holes", "_disp", "_lip",
                 "__weakref__")

    def __init__(self, times, frames, tden=None, *, _disp=None, _source=None,
                 _lip=None):
        if tden is None:
            tden, times = common(Q(t).as_integer_ratio() for t in times)
        tn = tuple(times)
        frames = list(frames)
        if len(tn) < 2 or len(tn) != len(frames):
            raise ValidationError("need at least 2 matching time samples")
        if tden <= 0:
            raise ValidationError("time denominator must be positive")
        if tn[0] != 0 or tn[-1] != tden:
            raise ValidationError("isotopy must be parametrized over [0, 1]")
        if not all(map(lt, tn, tn[1:])):
            raise ValidationError("time samples must strictly increase")
        if _disp is None:
            _disp = (fa._displacement(fb) for fa, fb in zip(frames, frames[1:]))
        record = []
        for step in _disp:
            if step is not None and not _small(step):
                raise AmbiguousLift(
                    "frames move by >= 1/2 within one time step; "
                    "resample the isotopy more finely"
                )
            record.append(step)
        self.tn = tn
        self.tden = tden
        self._holes = frames.count(None) if _source is not None else 0
        self._frames = frames if self._holes else tuple(frames)
        self._source = _source if self._holes else None
        self._disp = record
        self._lip = _lip

    def _at(self, i) -> PLCircleDiffeo:
        """Frame i, built by the source on its first read."""
        f = self._frames[i]
        if f is None:
            f = self._frames[i] = self._source(self.tn[i], self.tden)
            self._holes -= 1
            if not self._holes:
                self._frames = tuple(self._frames)
                self._source = None
        return f

    @property
    def frames(self) -> tuple:
        if self._holes:
            for i in range(len(self.tn)):
                self._at(i)
        return self._frames

    def _step(self, i):
        """Exact displacement of step i as an unreduced pair (num, den)."""
        step = self._disp[i]
        if step is None:
            step = self._disp[i] = self._at(i)._displacement(self._at(i + 1))
        return step

    def _slope(self):
        """The largest segment slope over the frames, as a pair (rise, run)."""
        if self._lip is None:
            self._lip = _top_slope(self.frames)
        return self._lip

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
        tn = self.tn
        a *= self.tden  # the time is a / (q * tden)
        i = bisect_right(tn, a // q) - 1
        if i >= len(tn) - 1:
            return self._at(-1)
        r = a - tn[i] * q
        if r == 0:
            return self._at(i)
        return self._at(i).interpolate(self._at(i + 1),
                                       (r, (tn[i + 1] - tn[i]) * q))

    def is_based_loop(self) -> bool:
        return self._at(0).is_identity() and self._at(-1).is_identity()


def mu(F: PLIsotopy, p):
    """Rotation angle of the basepoint trace t -> F_t(p).

    The trace has a continuous lift through the frame lifts (adjacent frames
    move by less than 1/2), so its rotation angle is the difference of the
    end frames' lifts at p, evaluated on integers.
    """
    p = Q(p)
    a, q = p.numerator, p.denominator
    n1, d1 = F._at(-1)._eval(a, q)
    n0, d0 = F._at(0)._eval(a, q)
    return Q(n1 * d0 - n0 * d1, d0 * d1)


def _top_slope(frames):
    """The largest segment slope over the frames, as a pair (rise, run)."""
    p, q = 0, 1
    for f in frames:
        for run, rise in zip(f.dx, f.dy):
            if rise * q > p * run:
                p, q = rise, run
    return p, q


def compose(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    """Pointwise-in-t composition (F_t o G_t) on the merged time grid.

    The grid is the union of both sample times over the least common
    multiple T of their denominators, and each factor's frame is looked up
    at every time of it.  Each step [a, b] of the grid is proven to move
    less than 1/2 by the slope bound of the module docstring, read off the
    factors' records, or else measured exactly.  A step of F_t o G_t can
    move by 1/2 or more even when no step of F or G does.  Only then is
    such a step bisected, sampling F_t o G_t at midpoints until every piece
    moves less than 1/2.  The result records each measured step and leaves
    each certified one unknown.

    Only the frames of measured steps are built here; the result builds
    every other composite frame on its first read.
    """
    T = lcm(F.tden, G.tden)
    tf = [t * (T // F.tden) for t in F.tn]
    tg = [t * (T // G.tden) for t in G.tn]
    grid = sorted(set(tf).union(tg))
    lim = MAX_STEP_DISPLACEMENT
    ln, ld = lim.numerator, lim.denominator
    rise, run = F._slope()  # Lip(F_t) <= rise / run for every t
    certified = []
    i = j = 0  # [a, b] lies in step i of F and step j of G
    for a, b in zip(grid, grid[1:]):
        while tf[i + 1] <= a:
            i += 1
        while tg[j + 1] <= a:
            j += 1
        # F moves nf / uf and G moves ng / ug per tick of 1/T in these steps
        nf, df = F._step(i)
        ng, dg = G._step(j)
        uf, ug = df * (tf[i + 1] - tf[i]), dg * (tg[j + 1] - tg[j])
        # (b - a) * (nf / uf + (rise / run) * ng / ug) < ln / ld
        certified.append(
            (b - a) * (nf * run * ug + rise * ng * uf) * ld < ln * uf * run * ug)
    return _sampled(grid, T, lambda a, q: F._frame(a, q).compose(G._frame(a, q)),
                    certified)


def invert(F: PLIsotopy) -> PLIsotopy:
    """The isotopy t -> (F_t)^-1, sampled at F's times.

    Inverse frames can move by 1/2 or more in a step where F's frames move
    less (a steep frame has a flat inverse), so every step is measured, and
    such a step is bisected, as in ``compose``.
    """
    return _sampled(F.tn, F.tden, lambda a, q: F._frame(a, q).inverse(),
                    [False] * (len(F.tn) - 1))


def _sampled(tn, tden, source, certified) -> PLIsotopy:
    """The isotopy whose frame at the time a/q is ``source(a, q)``, sampled
    at the times tn / tden.

    ``certified[k]`` says step k is proven below 1/2; every other step is
    measured, and when each moves less than 1/2 the result keeps these
    samples and builds its other frames on first read.  Otherwise every
    frame is built and each step that moves by 1/2 or more is cut at its
    midpoint, sampled from ``source``, until every piece moves less than
    1/2.  A certified step is recorded as unknown, a measured one exactly.
    """
    H = PLIsotopy(tn, [None] * len(tn), tden, _disp=[None] * len(certified),
                  _source=source)
    if all(ok or _small(H._step(k)) for k, ok in enumerate(certified)):
        return H
    ts, frames, disp = [Q(0)], [H._at(0)], []

    def cut(t1, f1, step):
        """Append the step from the last kept frame to (t1, f1), whose
        displacement is ``step``, halved until every piece is below 1/2."""
        if step is None or _small(step):
            ts.append(t1)
            frames.append(f1)
            disp.append(step)
            return
        tm = (ts[-1] + t1) / 2
        fm = source(tm.numerator, tm.denominator)
        cut(tm, fm, frames[-1]._displacement(fm))
        cut(t1, f1, frames[-1]._displacement(f1))

    for k, ok in enumerate(certified):
        cut(Q(tn[k + 1], tden), H._at(k + 1), None if ok else H._step(k))
    return PLIsotopy(ts, frames, _disp=disp)


def _lift_gap(f: PLCircleDiffeo, g: PLCircleDiffeo):
    """Constant integer d with f = g + d as lifts, or None."""
    L, _, mine, theirs = f._merged(g)
    (pa, ra), (pb, rb) = mine[0], theirs[0]
    d, r = divmod(pa * rb - pb * ra, ra * rb * L)
    if r:
        return None
    if all((pa - d * ra * L) * rb == pb * ra
           for (pa, ra), (pb, rb) in zip(mine, theirs)):
        return d
    return None


def concat(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    """Run F on [0, 1/2], then G on [1/2, 1]; needs F_1 = G_0 on the circle.

    The two halves may carry lifts differing by an integer (e.g. after a full
    turn); the second half is shifted so the concatenated traces stay
    continuous in lift space.
    """
    d = _lift_gap(F.frames[-1], G.frames[0])
    if d is None:
        raise FrameMismatch("end frame of the first isotopy must equal the "
                            "start frame of the second")
    tail = [
        g if d == 0
        else PLCircleDiffeo(g.xn, [y + d * g.den for y in g.yn], g.den)
        for g in G.frames[1:]
    ]
    T = lcm(F.tden, G.tden)  # over 2T: F on [0, T], G on [T, 2T]
    tn = [t * (T // F.tden) for t in F.tn]
    tn += [T + t * (T // G.tden) for t in G.tn[1:]]
    return PLIsotopy(tn, list(F.frames) + tail, 2 * T)


def commutator(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    return compose(compose(F, G), compose(invert(F), invert(G)))


def refine(F: PLIsotopy, max_disp) -> PLIsotopy:
    """Insert interpolated frames until each step moves less than max_disp.

    Each step is cut into the fewest equal pieces that move less than
    max_disp, counted from F's record of the step's displacement d.
    Adjacent interpolants of the step differ pointwise by (F_b - F_a) /
    pieces, so each piece moves exactly d / pieces, and that is what the
    result records.  The new times are integers over ``tden`` times the
    least common multiple of the piece counts.

    The result's frame at each time is ``F._frame`` there, built on its
    first read: F's own frame at F's times, and at the time j / pieces of
    the way along a step the interpolant with that ratio.  The result's
    slope bound is F's, exactly: F's frames are among the refined ones, and
    on each segment where both neighbours are linear an interpolant's slope
    is a convex combination of theirs, so no interpolant is steeper than its
    steeper neighbour.
    """
    max_disp = Q(max_disp)
    if max_disp <= 0:
        raise ValidationError("max_disp must be positive")
    mn, md = max_disp.numerator, max_disp.denominator
    lip = F._slope()
    steps = [F._step(i) for i in range(len(F.tn) - 1)]
    counts = [n * md // (d * mn) + 1 for n, d in steps]  # fewest pieces below max_disp
    P = lcm(*counts)
    tn: list = []
    disp: list = []
    for t0, t1, (n, d), pieces in zip(F.tn, F.tn[1:], steps, counts):
        tn += range(t0 * P, t1 * P, (t1 - t0) * (P // pieces))
        disp += [(n, d * pieces)] * pieces
    T = F.tden * P
    tn.append(T)
    return PLIsotopy(tn, [None] * len(tn), T, _disp=disp, _source=F._frame,
                     _lip=lip)


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

    def __eq__(self, other):
        if type(other) is not MultiIsotopy:
            return NotImplemented
        return ((self.components, self.basepoints)
                == (other.components, other.basepoints))

    def __hash__(self):
        return hash((self.components, self.basepoints))

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


def random_diffeo(rng: random.Random, breakpoints: int | None = None) -> PLCircleDiffeo:
    """Random PL circle diffeo: jittered rotation, slopes within [3/4, 5/4]."""
    bits = rng.getrandbits
    b = breakpoints if breakpoints is not None else _randint(bits, 2, 8)
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
            f"trials {trials} exceeds the cap MAX_DEFECT_TRIALS = {MAX_DEFECT_TRIALS}")
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
