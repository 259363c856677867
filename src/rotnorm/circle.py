"""Piecewise-linear circle paths, diffeomorphisms, and isotopies.

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
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PLPath:
    """A PL path on the circle given by its lift at time breakpoints."""

    times: tuple
    values: tuple

    def __post_init__(self):
        ts = tuple(Q(t) for t in self.times)
        vs = tuple(Q(v) for v in self.values)
        if len(ts) < 2 or len(ts) != len(vs):
            raise ValidationError("path needs at least 2 matching breakpoints")
        if ts[0] != 0 or ts[-1] != 1:
            raise ValidationError("path must be parametrized over [0, 1]")
        if any(a >= b for a, b in zip(ts, ts[1:])):
            raise ValidationError("time breakpoints must strictly increase")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)


def rotation_angle(path: PLPath):
    """Lift-endpoint difference; equals the degree on closed loops."""
    return path.values[-1] - path.values[0]


class PLCircleDiffeo:
    """Orientation-preserving circle diffeo, stored as one period of its lift.

    The breakpoints ``xs`` and lift values ``ys`` are kept as integer
    numerators ``xn``/``yn`` over one shared denominator ``den``, together
    with the integer run ``dx`` and rise ``dy`` of every segment (the last
    segment wraps to the first breakpoint one period on).  Every operation
    works on these integers and builds a rational only for the values it
    returns.  Maps built by ``compose`` and ``interpolate`` use the least
    common denominator of their breakpoints and values.

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
        """Convex combination (1-s)*self + s*other of the lifts."""
        s = Q(s)
        if s == 0:
            return self
        if s == 1:
            return other
        sn, sd = s.numerator, s.denominator
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
    """

    __slots__ = ("tn", "tden", "frames")

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
        lim = MAX_STEP_DISPLACEMENT
        for fa, fb in zip(frames, frames[1:]):
            n, d = fa._displacement(fb)
            if n * lim.denominator >= lim.numerator * d:
                raise AmbiguousLift(
                    "frames move by >= 1/2 within one time step; "
                    "resample the isotopy more finely"
                )
        self.tn = tn
        self.tden = tden
        self.frames = frames

    @property
    def times(self) -> tuple:
        return tuple(Q(t, self.tden) for t in self.tn)

    @staticmethod
    def identity() -> "PLIsotopy":
        ident = PLCircleDiffeo.identity()
        return PLIsotopy((0, 1), (ident, ident), 1)

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
            return self.frames[-1]
        r = a - tn[i] * q
        if r == 0:
            return self.frames[i]
        s = Q(r, (tn[i + 1] - tn[i]) * q)
        return self.frames[i].interpolate(self.frames[i + 1], s)

    def trace(self, p) -> PLPath:
        """The PL path t -> F_t(p), with continuously selected lift."""
        p = Q(p)
        start = self.frames[0].eval(p)
        shift = floor_q(start)  # pin the t=0 lift value into [0, 1)
        return PLPath(self.times, tuple(f.eval(p) - shift for f in self.frames))

    def is_based_loop(self) -> bool:
        return self.frames[0].is_identity() and self.frames[-1].is_identity()


def mu(F: PLIsotopy, p):
    """Rotation angle of the basepoint trace t -> F_t(p).

    The trace has a continuous lift through the frame lifts (adjacent frames
    move by less than 1/2), so its rotation angle is the difference of the
    end frames' lifts at p, evaluated on integers.
    """
    p = Q(p)
    a, q = p.numerator, p.denominator
    n1, d1 = F.frames[-1]._eval(a, q)
    n0, d0 = F.frames[0]._eval(a, q)
    return Q(n1 * d0 - n0 * d1, d0 * d1)


def compose(F: PLIsotopy, G: PLIsotopy) -> PLIsotopy:
    """Pointwise-in-t composition (F_t o G_t) on the merged time grid.

    The grid is the union of both sample times over the least common
    multiple of their denominators, and each factor's frame is looked up at
    every time of it.  A step of F_t o G_t can move by 1/2 or more even
    when no step of F or G does.  Only then are such steps bisected,
    sampling F_t o G_t at their midpoints until every step moves less than
    1/2.
    """
    T = lcm(F.tden, G.tden)
    grid = sorted({t * (T // F.tden) for t in F.tn}.union(
        t * (T // G.tden) for t in G.tn))
    frames = [F._frame(t, T).compose(G._frame(t, T)) for t in grid]
    try:
        return PLIsotopy(grid, frames, T)
    except AmbiguousLift:
        pass
    lim = MAX_STEP_DISPLACEMENT
    ts = [Q(t, T) for t in grid]
    out_t, out_f = [ts[0]], [frames[0]]
    pending = list(zip(ts[1:], frames[1:]))[::-1]  # a stack, earliest on top
    while pending:
        t1, f1 = pending[-1]
        n, d = out_f[-1]._displacement(f1)
        if n * lim.denominator < lim.numerator * d:
            out_t.append(t1)
            out_f.append(f1)
            pending.pop()
        else:
            tm = (out_t[-1] + t1) / 2
            a, q = tm.numerator, tm.denominator
            pending.append((tm, F._frame(a, q).compose(G._frame(a, q))))
    return PLIsotopy(out_t, out_f)


def invert(F: PLIsotopy) -> PLIsotopy:
    return PLIsotopy(F.tn, [f.inverse() for f in F.frames], F.tden)


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

    Each step is cut into equal pieces, so the new times are integers over
    ``tden`` times the least common multiple of the piece counts.
    """
    max_disp = Q(max_disp)
    if max_disp <= 0:
        raise ValidationError("max_disp must be positive")
    mn, md = max_disp.numerator, max_disp.denominator
    counts = []
    for fa, fb in zip(F.frames, F.frames[1:]):
        n, d = fa._displacement(fb)
        counts.append(n * md // (d * mn) + 1)  # fewest pieces below max_disp
    P = lcm(*counts)
    tn: list = []
    frames: list = []
    for t0, t1, fa, fb, pieces in zip(F.tn, F.tn[1:], F.frames, F.frames[1:],
                                      counts):
        step = (t1 - t0) * (P // pieces)
        t0 *= P
        tn.append(t0)
        frames.append(fa)
        for j in range(1, pieces):
            tn.append(t0 + j * step)
            frames.append(fa.interpolate(fb, Q(j, pieces)))
    T = F.tden * P
    tn.append(T)
    frames.append(F.frames[-1])
    return PLIsotopy(tn, frames, T)


@dataclass(frozen=True)
class MultiIsotopy:
    """m independent circle isotopies with one basepoint per circle."""

    components: tuple
    basepoints: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        pts = tuple(Q(p) for p in self.basepoints)
        if not comps or len(comps) != len(pts):
            raise ValidationError("components and basepoints must match")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "basepoints", pts)

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


def compose_multi(F: MultiIsotopy, G: MultiIsotopy) -> MultiIsotopy:
    if F.m != G.m or F.basepoints != G.basepoints:
        raise DimensionMismatch("component counts / basepoints disagree")
    return MultiIsotopy(
        tuple(compose(a, b) for a, b in zip(F.components, G.components)),
        F.basepoints,
    )


# ---------------------------------------------------------------------------
# Seeded random generators.  Each draws its maps on one integer grid (the
# breakpoints i/b and jitter in units of 1/(64*b)), so every map is built
# straight from integer numerators.
# ---------------------------------------------------------------------------


def random_diffeo(rng: random.Random, breakpoints: int | None = None) -> PLCircleDiffeo:
    """Random PL circle diffeo: jittered rotation, slopes within [3/4, 5/4]."""
    b = breakpoints if breakpoints is not None else rng.randint(2, 8)
    c = rng.randint(-64, 64) * b  # over 64*b
    xs = [64 * i for i in range(b)]
    ys = [x + c + rng.randint(-8, 8) for x in xs]
    return PLCircleDiffeo(xs, ys, 64 * b)


def random_isotopy(rng: random.Random) -> PLIsotopy:
    """Random isotopy starting at the identity; per-step movement <= 3/8."""
    samples = rng.randint(2, 6)
    b = rng.randint(2, 8)
    D = 64 * b
    xs = [64 * i for i in range(b)]
    frames = [PLCircleDiffeo(xs, xs, D)]
    c = 0
    for _ in range(samples - 1):
        c += rng.randint(-16, 16) * b
        ys = [x + c + rng.randint(-8, 8) for x in xs]
        frames.append(PLCircleDiffeo(xs, ys, D))
    return PLIsotopy(range(samples), frames, samples - 1)


def random_based_loop(rng: random.Random, winding: int | None = None) -> PLIsotopy:
    """Random loop at the identity with a prescribed integer winding number."""
    w = winding if winding is not None else rng.randint(-2, 2)
    samples = 4 * abs(w) + 2
    b = rng.randint(2, 8)
    S = samples - 1
    D = 64 * b * S  # lifts over 64*b*S: time steps are 1/S
    xs = [64 * S * i for i in range(b)]
    frames = [PLCircleDiffeo(xs, xs, D)]
    for j in range(1, samples):
        if j == S:
            c = w * D
            jitter = [0] * b
        else:
            c = 64 * b * w * j + rng.randint(-2, 2) * b * S
            jitter = [rng.randint(-8, 8) * S for _ in range(b)]
        ys = [x + c + e for x, e in zip(xs, jitter)]
        frames.append(PLCircleDiffeo(xs, ys, D))
    return PLIsotopy(range(samples), frames, S)


#: Most trials one defect_experiment call runs: 10**6 trials take two to three
#: minutes on a 2-vCPU host, while larger counts would run for hours.
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
    for _ in range(trials):
        F = random_isotopy(rng)
        G = random_isotopy(rng)
        h = random_diffeo(rng)
        p = (rng.randint(0, 63), 64)
        qpt = (rng.randint(0, 63), 64)
        f = F.frames[-1]
        g = G.frames[-1]
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
