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
from enum import Enum

from rotnorm._rat import INF, Q, floor_q, rat_str
from rotnorm.errors import (
    DimensionMismatch,
    InconsistentLedger,
    ValidationError,
    ZeroDenominator,
)
from rotnorm.lattice import IntLattice, QuotientInfo, kernel_functional

FINITE = "finite"

QUANTITIES = (
    "cl_f", "clb_f", "cl_modG_f", "clb_modG_f", "zeta", "eta",
    "cld", "clbd", "cld_G", "clbd_G",
)


def _upper_rank(u):
    """Sort key on the upper-bound tower: numeric < finite < infinite."""
    if u == INF:
        return (2, 0)
    if u == FINITE:
        return (1, 0)
    return (0, u)


def _upper_add(a, b):
    if a == INF or b == INF:
        return INF
    if a == FINITE or b == FINITE:
        return FINITE
    return a + b


def _upper_mul(c, a):
    if a == INF or a == FINITE:
        return a
    return c * a


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
            raise ValidationError(f"unknown context keys: {sorted(unknown)}")
        if type(data["n"]) is not int or type(data["m"]) is not int:
            raise ValidationError('context "n" and "m" must be integers')
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
            if e.upper != INF and e.upper != FINITE and e.lower > e.upper:
                raise InconsistentLedger(
                    f"{name}: lower {e.lower} exceeds upper {e.upper}"
                )

    def to_json(self) -> dict:
        out = {}
        for name in QUANTITIES:
            if name not in self.entries:
                continue
            e = self.entries[name]
            upper = "inf" if e.upper == INF else (
                FINITE if e.upper == FINITE else rat_str(e.upper))
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


def diameter_ledger(ctx: ManifoldContext, q: QuotientInfo) -> BoundLedger:
    """Diameter bounds implied by the quotient invariants and the context.

    Emits nothing when rank < m (no finite bounds exist on that path).  The
    clb_modG_f entry is bounded by k_hat: the quotient norm diameter bounds
    the per-element value.
    """
    led = BoundLedger()
    if q.rank < ctx.m:
        return led
    k_hat = q.k_hat
    led = led.with_upper("clb_modG_f", Q(k_hat), "quotient_diameter_k_hat")
    n = ctx.n
    if n % 2 == 1 and n >= 3:
        led = led.with_upper("cld_G", Q(4), "odd_dim_complement_cl_diameter")
        led = led.with_upper(
            "clbd_G", Q(2 * n + 4), "odd_dim_complement_clb_diameter")
        led = led.with_upper("cld", Q(k_hat + 4), "cl_diameter_k_hat_plus_4")
        led = led.with_upper(
            "clbd", Q(k_hat + 2 * n + 4), "clb_diameter_k_hat_plus_2n_plus_4")
    elif n % 2 == 0 and n >= 6:
        for name in ("cld_G", "clbd_G", "cld", "clbd"):
            led = led.with_upper(name, FINITE, "even_dim_finiteness")
    # n in {2, 4}: no upper bounds available.
    if ctx.m == 1 and q.k != INF:
        led = led.with_lower(
            "cld", Q(q.k + 2, 8), "half_order_quasimorphism_lower")
    else:
        # theta_sup >= 0 always, so the generic quasimorphism lower bound
        # (theta_sup + 1) / 4 degrades to 1/4.
        led = led.with_lower("cld", Q(1, 4), "generic_quasimorphism_lower")
    return led


# Relation rules: (smaller, larger-side description).
# q1 <= q2                 : ("le", q1, q2)
# q1 <= c * q2             : ("le_scaled", q1, c, q2)
# q1 <= q2 + q3            : ("le_sum", q1, q2, q3)
_RELATIONS = (
    ("le", "cl_f", "clb_f", "cl_le_clb"),
    ("le_scaled", "clb_f", Q(2), "eta", "clb_le_2eta"),
    ("le_scaled", "zeta", Q(4), "clb_f", "zeta_le_4clb"),
    ("le_sum", "cl_f", "cl_modG_f", "cld_G", "cl_le_quotient_plus_diameter"),
    ("le_sum", "clb_f", "clb_modG_f", "clbd_G", "clb_le_quotient_plus_diameter"),
    ("le", "cl_modG_f", "clb_modG_f", "cl_modG_le_clb_modG"),
)


def relation_close(ledger: BoundLedger) -> BoundLedger:
    """Fixed point of the norm-relation rules; tightens uppers, lifts lowers."""
    led = ledger
    for _ in range(64):
        before = led
        for rel in _RELATIONS:
            kind, rule = rel[0], rel[-1]
            if kind == "le":
                _, a, b, _ = rel
                led = led.with_upper(a, led.get(b).upper, rule)
                led = led.with_lower(b, led.get(a).lower, rule)
            elif kind == "le_scaled":
                _, a, c, b, _ = rel
                led = led.with_upper(a, _upper_mul(c, led.get(b).upper), rule)
                led = led.with_lower(b, led.get(a).lower / c, rule)
            else:  # le_sum: a <= b + c
                _, a, b, c, _ = rel
                led = led.with_upper(
                    a, _upper_add(led.get(b).upper, led.get(c).upper), rule)
                for x, other in ((b, c), (c, b)):
                    u = led.get(other).upper
                    if u != INF and u != FINITE:
                        led = led.with_lower(x, led.get(a).lower - u, rule)
        if led.entries == before.entries:
            break
    else:  # pragma: no cover - the rules are monotone over a finite value set
        raise InconsistentLedger("relation closure did not stabilize")
    led.check()
    return led


class Status(str, Enum):
    BOUNDED = "Bounded"
    UNBOUNDED = "Unbounded"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Verdict:
    status: Status
    justification: tuple

    def to_json(self) -> dict:
        return {"status": self.status.value, "justification": list(self.justification)}


def verdict(ctx: ManifoldContext, A: IntLattice) -> Verdict:
    """Boundedness verdict for the diffeomorphism group of the pair.

    Unbounded when rank < m (an orthogonal functional induces a surjective
    quasimorphism).  Bounded when rank = m, n not in {2, 4}, connected, and
    the perfectness assumption holds.  Unknown otherwise.
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
    gaps = []
    if ctx.n in (2, 4):
        gaps.append("dimension_2_or_4_excluded")
    if not ctx.connected:
        gaps.append("disconnected_base")
    if not ctx.assumption_P:
        gaps.append("perfectness_assumption_missing")
    if gaps:
        return Verdict(Status.UNKNOWN, ("rank_eq_m",) + tuple(gaps))
    return Verdict(Status.BOUNDED, (
        "rank_eq_m",
        "finite_quotient_diameter_k_hat",
        "complement_diameter_finite",
        "uniformly_weakly_simple_bounded",
    ))
