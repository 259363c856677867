"""Rule engine turning lattice invariants and manifold context flags into
certified lower/upper bounds on conjugation-invariant norms, plus a
boundedness verdict.

Quantities tracked in a ledger (per element f, or as group diameters):
  cl_f, clb_f          commutator length / ball-supported commutator length
  cl_modG_f, clb_modG_f    their quotients modulo the subgroup G of
                           isotopies fixing the distinguished circles
  zeta, eta            conjugation-generated norm / fragmentation norm
  cld, clbd            diameters of cl and clb on the whole group
  cld_G, clbd_G        diameters restricted to the subgroup G
Upper bounds live in the ordered tower: numbers < "finite" < infinity.  The
"finite" token encodes theorems that prove finiteness without a numeric
constant; it absorbs addition with numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from rotnorm._rat import INF, Q, floor_q, rat_str
from rotnorm.errors import (
    DimensionMismatch,
    InconsistentLedger,
    ValidationError,
    ZeroDenominator,
    quoted,
)
from rotnorm.lattice import IntLattice, QuotientInfo, kernel_functional

FINITE = "finite"

QUANTITIES = (
    "cl_f", "clb_f", "cl_modG_f", "clb_modG_f", "zeta", "eta",
    "cld", "clbd", "cld_G", "clbd_G",
)


def _upper_rank(u):
    """Sort key on the upper-bound tower: numeric < finite < infinite.

    The rank is read off the type: INF is a float and FINITE the one str,
    while numeric uppers are ints and rationals, so no rational is compared
    with a float or a str on the way.
    """
    t = type(u)
    if t is float and u == INF:
        return (2, 0)
    if t is str:
        return (1, 0)
    return (0, u)


def _is_number(u) -> bool:
    """Whether an upper is a number, below "finite" on the tower."""
    return _upper_rank(u)[0] == 0


def _upper_sum(c, uppers):
    """c * sum(uppers) on the tower, where "finite" absorbs numbers."""
    top = max(uppers, key=_upper_rank)
    return top if _upper_rank(top)[0] else c * sum(uppers)


@dataclass(frozen=True)
class ManifoldContext:
    """Caller-asserted topological context for the bound rules."""

    n: int  # manifold dimension
    m: int  # number of distinguished circles
    connected: bool = True
    closed_or_open: str = "closed"
    regularity: str = "smooth"
    assumption_P: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("dimension n must be at least 2")
        if self.m < 1:
            raise ValidationError("circle count m must be at least 1")
        if self.closed_or_open not in ("closed", "open"):
            raise ValidationError('closed_or_open must be "closed" or "open"')
        if self.regularity not in ("smooth", "finite_r"):
            raise ValidationError('regularity must be "smooth" or "finite_r"')
        if self.regularity == "smooth" and not self.assumption_P:
            # Perfectness holds unconditionally in the smooth case.
            object.__setattr__(self, "assumption_P", True)

    @staticmethod
    def from_json(data) -> "ManifoldContext":
        if not isinstance(data, dict) or "n" not in data or "m" not in data:
            raise ValidationError('context JSON needs at least "n" and "m"')
        allowed = {"n", "m", "connected", "closed_or_open", "regularity",
                   "assumption_P"}
        unknown = set(data) - allowed
        if unknown:
            raise ValidationError(f"unknown context keys: {quoted(sorted(unknown))}")
        if type(data["n"]) is not int or type(data["m"]) is not int:
            raise ValidationError('context "n" and "m" must be integers')
        if any(type(data.get(k, False)) is not bool
               for k in ("connected", "assumption_P")):
            raise ValidationError(
                'context "connected" and "assumption_P" must be true or false')
        return ManifoldContext(**data)


@dataclass(frozen=True)
class BoundEntry:
    lower: object = Q(0)
    upper: object = INF
    rules: tuple = ()


@dataclass(frozen=True)
class BoundLedger:
    """Immutable map quantity -> (lower, upper, rule provenance)."""

    entries: dict = field(default_factory=dict)

    def get(self, quantity: str) -> BoundEntry:
        return self.entries.get(quantity, BoundEntry())

    def with_lower(self, quantity: str, value, rule: str) -> "BoundLedger":
        cur = self.get(quantity)
        if value <= cur.lower:
            return self
        new = BoundEntry(value, cur.upper, cur.rules + (rule,))
        return BoundLedger({**self.entries, quantity: new})

    def with_upper(self, quantity: str, value, rule: str) -> "BoundLedger":
        cur = self.get(quantity)
        if _upper_rank(value) >= _upper_rank(cur.upper):
            return self
        new = BoundEntry(cur.lower, value, cur.rules + (rule,))
        return BoundLedger({**self.entries, quantity: new})

    def check(self) -> None:
        for name, e in self.entries.items():
            if _is_number(e.upper) and e.lower > e.upper:
                raise InconsistentLedger(
                    f"{name}: lower {e.lower} exceeds upper {e.upper}"
                )

    def to_json(self) -> dict:
        out = {}
        for name in QUANTITIES:
            if name not in self.entries:
                continue
            e = self.entries[name]
            rank = _upper_rank(e.upper)[0]
            upper = (rat_str(e.upper) if rank == 0
                     else FINITE if rank == 1 else "inf")
            out[name] = {
                "lower": rat_str(e.lower),
                "upper": upper,
                "rules": list(e.rules),
            }
        return out


def lower_cl(theta_f, D, C):
    """Quasimorphism lower bound (theta + D) / (C + D) for cl."""
    theta_f, D, C = Q(theta_f), Q(D), Q(C)
    if C + D <= 0:
        raise ZeroDenominator("need C + D > 0")
    return (theta_f + D) / (C + D)


def upper_clb_modG(theta_f) -> int:
    """Upper bound 2*l + 1 with l = floor(theta) + 1 (minimal l > theta)."""
    theta_f = Q(theta_f)
    if theta_f < 0:
        raise ValidationError("theta must be non-negative")
    ell = floor_q(theta_f) + 1
    return 2 * ell + 1


# Quasimorphism constants for the vector rotation number: defect D = 1 and
# commutator bound C = 3, so cl f >= (theta + 1) / 4.
NU_DEFECT = Q(1)
NU_COMMUTATOR_BOUND = Q(3)


def theta_lower_cl(theta_f):
    """The cl lower bound of an element f with theta(nu_hat(f)) = theta:
    `lower_cl` with nu's constants when theta > 0, and 0 at theta = 0.

    (theta + 1)/4 comes from |nu| <= nC + (n - 1)D for a product of n >= 1
    commutators, so it holds only for f != id.  theta > 0 ensures that; at
    theta = 0 f may be the identity, whose cl is 0.
    """
    theta_f = Q(theta_f)
    if theta_f > 0:
        return lower_cl(theta_f, NU_DEFECT, NU_COMMUTATOR_BOUND)
    return Q(0)


def _gaps(ctx: ManifoldContext) -> tuple:
    """Tags of the boundedness theorem hypotheses that ctx does not assert."""
    return tuple(tag for tag, missing in (
        ("dimension_2_or_4_excluded", ctx.n in (2, 4)),
        ("disconnected_base", not ctx.connected),
        ("perfectness_assumption_missing", not ctx.assumption_P),
        ("open_manifold_excluded", ctx.closed_or_open == "open"),
    ) if missing)


def diameter_ledger(ctx: ManifoldContext, q: QuotientInfo) -> BoundLedger:
    """Diameter bounds implied by the quotient invariants and the context.

    Emits nothing when rank < m (no finite bounds exist on that path).
    The constants come from the per-element rules taken at the ends of an
    interval [theta_lo, k/2] holding theta_sup, the largest theta of an
    element: every coset's canonical representative lies in the box
    prod (-k_i/2, k_i/2], so theta_sup <= k/2, and theta_sup >= theta_lo
    with theta_lo = k/2 for m = 1 and 0 otherwise.  Hence on a closed pair
    clb_modG_f <= upper_clb_modG(k/2) = k_hat.  For m = 1 an element
    attains theta = k/2 > 0, so cld >= (k/2 + 1)/4 = lower_cl(k/2).  For
    m >= 2 the per-element rule does not apply at theta = 0, which the
    identity attains; a rotation of one circle N_j by a small eps > 0 has
    theta = eps instead, so cld >= (eps + 1)/4 > 1/4 = lower_cl(0).
    The G and whole-group diameter uppers need every hypothesis of the
    boundedness theorem (see `verdict`).  A lattice whose dimension is not
    the context's m is a DimensionMismatch.
    """
    if len(q.orders) != ctx.m:
        raise DimensionMismatch(
            f"lattice dimension {len(q.orders)} != context m {ctx.m}")
    led = BoundLedger()
    if q.rank < ctx.m:
        return led
    n, theta_hi, proven = ctx.n, Q(q.k, 2), not _gaps(ctx)
    theta_lo = theta_hi if ctx.m == 1 else Q(0)
    clb_modG = Q(upper_clb_modG(theta_hi))
    if ctx.closed_or_open == "closed":
        led = led.with_upper("clb_modG_f", clb_modG, "quotient_diameter_k_hat")
    if proven and n % 2:
        led = led.with_upper("cld_G", Q(4), "odd_dim_complement_cl_diameter")
        led = led.with_upper(
            "clbd_G", Q(2 * n + 4), "odd_dim_complement_clb_diameter")
        led = led.with_upper("cld", clb_modG + 4, "cl_diameter_k_hat_plus_4")
        led = led.with_upper(
            "clbd", clb_modG + 2 * n + 4, "clb_diameter_k_hat_plus_2n_plus_4")
    elif proven:
        for name in ("cld_G", "clbd_G", "cld", "clbd"):
            led = led.with_upper(name, FINITE, "even_dim_finiteness")
    rule = ("half_order_quasimorphism_lower" if ctx.m == 1
            else "generic_quasimorphism_lower")
    return led.with_lower(
        "cld", lower_cl(theta_lo, NU_DEFECT, NU_COMMUTATOR_BOUND), rule)


# Norm relations, each row (target, c, terms, rule) read as
# target <= c * sum(terms).  Every rule that writes a quantity's upper bound
# comes before every rule that reads it (see `relation_close`).
_RELATIONS = (
    ("clb_f", Q(2), ("eta",), "clb_le_2eta"),
    ("clb_f", Q(1), ("clb_modG_f", "clbd_G"), "clb_le_quotient_plus_diameter"),
    ("cl_modG_f", Q(1), ("clb_modG_f",), "cl_modG_le_clb_modG"),
    ("cl_f", Q(1), ("clb_f",), "cl_le_clb"),
    ("cl_f", Q(1), ("cl_modG_f", "cld_G"), "cl_le_quotient_plus_diameter"),
    ("zeta", Q(4), ("clb_f",), "zeta_le_4clb"),
)


def relation_close(ledger: BoundLedger) -> BoundLedger:
    """Close the ledger under `_RELATIONS`: tighten uppers, lift lowers.

    A row target <= c * sum(terms) bounds target above by c times the sum
    of the terms' uppers, and each term b below by target.lower / c minus
    the other terms' uppers, when those are all numbers.  Uppers read only
    uppers, along the edges term -> target; that graph is acyclic and the
    table lists it in topological order, so one forward walk leaves every
    upper final.  A lower reads the target's lower along the same edges
    reversed, plus final uppers, so one backward walk leaves every lower
    final: the fixed point of the rules.  An entry's `rules` lists its
    upper rules in table order, then its lower rules in reverse order.
    """
    led = ledger
    for target, c, terms, rule in _RELATIONS:
        led = led.with_upper(
            target, _upper_sum(c, [led.get(t).upper for t in terms]), rule)
    for target, c, terms, rule in reversed(_RELATIONS):
        for i, term in enumerate(terms):
            others = [led.get(t).upper for t in terms[:i] + terms[i + 1:]]
            if all(map(_is_number, others)):
                led = led.with_lower(
                    term, led.get(target).lower / c - sum(others), rule)
    led.check()
    return led


def element_ledger(ctx: ManifoldContext, q: QuotientInfo, theta) -> BoundLedger:
    """The closed ledger of one element f with theta(nu_hat(f)) = theta.

    Starts from `diameter_ledger` (so a lattice of another dimension is a
    DimensionMismatch first), refuses on a full-rank lattice a theta above
    k/2, which no coset reaches, then adds the per-element rules at theta
    and closes the ledger under the norm relations (`relation_close`).  At
    theta = 0 the cl_f lower rule adds nothing (see `theta_lower_cl`).
    """
    theta = Q(theta)
    led = diameter_ledger(ctx, q)
    if q.rank == ctx.m and theta > Q(q.k, 2):
        raise ValidationError(
            f"theta {rat_str(theta)} exceeds k/2 = {rat_str(Q(q.k, 2))}: no "
            "coset of this lattice has theta above theta_sup <= k/2")
    led = led.with_lower(
        "cl_f", theta_lower_cl(theta), "quasimorphism_theta_lower")
    led = led.with_upper(
        "clb_modG_f", Q(upper_clb_modG(theta)), "quotient_norm_theta_upper")
    return relation_close(led)


class Status(str):
    """A verdict status: one of the three str constants below.  ``value``
    is the plain str, as on the enum members these replaced; the
    benchmark's verdict check reads it."""

    value = property(str)


Status.BOUNDED = Status("Bounded")
Status.UNBOUNDED = Status("Unbounded")
Status.UNKNOWN = Status("Unknown")


@dataclass(frozen=True)
class Verdict:
    status: Status
    justification: tuple

    def to_json(self) -> dict:
        return {"status": self.status, "justification": list(self.justification)}


def verdict(ctx: ManifoldContext, A: IntLattice) -> Verdict:
    """Boundedness verdict for the diffeomorphism group of the pair.

    Unbounded when rank < m (an orthogonal functional induces a surjective
    quasimorphism).  Bounded when rank = m, n not in {2, 4}, connected,
    closed, and the perfectness assumption holds.  Unknown otherwise.
    """
    if A.m != ctx.m:
        raise DimensionMismatch(f"lattice dimension {A.m} != context m {ctx.m}")
    if A.rank < A.m:
        kernel_functional(A)  # must exist on this path
        return Verdict(Status.UNBOUNDED, (
            "rank_lt_m",
            "orthogonal_functional_exists",
            "surjective_quasimorphism",
            "not_uniformly_perfect_unbounded",
        ))
    gaps = _gaps(ctx)
    if gaps:
        return Verdict(Status.UNKNOWN, ("rank_eq_m",) + gaps)
    return Verdict(Status.BOUNDED, (
        "rank_eq_m",
        "finite_quotient_diameter_k_hat",
        "complement_diameter_finite",
        "uniformly_weakly_simple_bounded",
    ))
