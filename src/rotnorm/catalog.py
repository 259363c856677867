"""Named example fixtures wired into the lattice and verdict engines.

Each fixture records a manifold context (caller-asserted topological flags),
either an exact lattice or a rank-only statement, and the expected invariants
and verdict.  `check_fixture` recomputes everything and reports mismatches;
the catalog is self-consistent iff every fixture checks clean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from rotnorm._rat import INF
from rotnorm.bounds import ManifoldContext, verdict
from rotnorm.errors import ValidationError
from rotnorm.lattice import IntLattice, lattice_from_json, member, quotient_info


@dataclass(frozen=True)
class Fixture:
    name: str
    source: str
    ctx: ManifoldContext
    lattice: IntLattice | None  # None for rank-only fixtures
    rank_at_most: int | None
    expected: dict


def hopf_lattice(m: int) -> IntLattice:
    """Rotation-number lattice of the m-component Hopf-style link family."""
    if m < 1:
        raise ValidationError("m must be at least 1")
    if m == 1:
        return lattice_from_json({"m": 1, "generators": [[1]]})
    if m == 2:
        return lattice_from_json({"m": 2, "generators": [[1, 0], [0, 1]]})
    return lattice_from_json({"m": m, "generators": [[1] * m]})


@dataclass(frozen=True)
class MembershipAssertion:
    """The vector of circle-action orbit degrees must lie in the lattice."""

    degrees: tuple

    def holds_in(self, A: IntLattice) -> bool:
        return member(A, list(self.degrees))

    def divides(self, k: int) -> bool:
        """m = 1 convenience: degree p in A = kZ forces k | p."""
        if len(self.degrees) != 1:
            raise ValidationError("divisibility form applies only to m = 1")
        p = int(self.degrees[0])
        return p % k == 0 if k else p == 0


def s1_action_vector(degrees) -> MembershipAssertion:
    return MembershipAssertion(tuple(int(d) for d in degrees))


@dataclass(frozen=True)
class VanishingAssertion:
    """center_trivial + pi1_injective force the rotation lattice to vanish."""

    asserts_zero: bool

    def check(self, A: IntLattice) -> bool:
        if not self.asserts_zero:
            return True  # nothing asserted
        return A.rank == 0


def vanishing_condition(center_trivial: bool, pi1_injective: bool) -> VanishingAssertion:
    return VanishingAssertion(asserts_zero=center_trivial and pi1_injective)


def _fixture_files():
    return resources.files("rotnorm").joinpath("fixtures")


def list_fixtures() -> list[str]:
    names = [
        p.name[: -len(".json")]
        for p in _fixture_files().iterdir()
        if p.name.endswith(".json")
    ]
    return sorted(names)


def load_fixture(name: str) -> Fixture:
    path = _fixture_files().joinpath(f"{name}.json")
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"unknown fixture: {name}") from None
    lattice = None
    rank_at_most = None
    if "lattice" in data:
        lattice = lattice_from_json(data["lattice"])
    else:
        rank_at_most = int(data["rank_at_most"])
    return Fixture(
        name=data["name"],
        source=data.get("source", ""),
        ctx=ManifoldContext.from_json(data["ctx"]),
        lattice=lattice,
        rank_at_most=rank_at_most,
        expected=data["expected"],
    )


def check_fixture(name: str) -> dict:
    """Recompute a fixture's invariants and compare against expectations."""
    fx = load_fixture(name)
    report = {"name": fx.name, "checks": {}, "ok": True}

    def record(key: str, expected, actual) -> None:
        ok = expected == actual
        report["checks"][key] = {"expected": expected, "actual": actual, "ok": ok}
        if not ok:
            report["ok"] = False

    if fx.lattice is not None:
        info = quotient_info(fx.lattice)
        v = verdict(fx.ctx, fx.lattice)
        exp = fx.expected
        if "rank" in exp:
            record("rank", exp["rank"], info.rank)
        if "k_max" in exp:
            actual = "inf" if info.k == INF else info.k
            record("k_max", exp["k_max"], actual)
        if "k_hat" in exp:
            record("k_hat", exp["k_hat"], info.k_hat)
        if "k_scalar" in exp:
            record("k_scalar", exp["k_scalar"], info.k_scalar)
        if "hnf_basis" in exp:
            record("hnf_basis", exp["hnf_basis"],
                   [list(r) for r in fx.lattice.hnf_basis])
        record("verdict", exp["verdict"], v.status.value)
        if "degrees_in_lattice" in exp:
            assertion = s1_action_vector(exp["degrees_in_lattice"])
            record("degrees_in_lattice", True, assertion.holds_in(fx.lattice))
    else:
        # Rank-only fixture: a rank bound below m forces Unbounded.
        record("rank_below_m", True, fx.rank_at_most < fx.ctx.m)
        record("verdict", fx.expected["verdict"], "Unbounded")
    return report
