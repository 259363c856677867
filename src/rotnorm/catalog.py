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

from rotnorm.bounds import ManifoldContext, verdict
from rotnorm.errors import ValidationError
from rotnorm.lattice import (
    IntLattice, lattice_from_json, member, normalize, quotient_info,
)


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
    if name not in list_fixtures():
        raise ValidationError(f"unknown fixture: {name}")
    data = json.loads(_fixture_files().joinpath(f"{name}.json").read_text())
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
    """Recompute a fixture's invariants and compare against expectations.

    Each `expected` key is read from the engines' JSON: the `lattice`
    command's keys (QuotientInfo.to_json), `hnf_basis` and `verdict`.
    `degrees_in_lattice` is a membership check.  A key that no engine
    produces is a ValidationError.
    """
    fx = load_fixture(name)
    expected = dict(fx.expected)
    if fx.lattice is None:
        # Rank-only fixture: the verdict reads the lattice only through its
        # rank, so it is judged on W, the span of the first rank_at_most
        # unit vectors.
        m, r = fx.ctx.m, fx.rank_at_most
        W = normalize([[int(i == j) for j in range(m)] for i in range(r)],
                      ambient_dim=m)
        expected["rank_below_m"] = True
        actual = {"rank_below_m": r < m,
                  "verdict": verdict(fx.ctx, W).status.value}
    else:
        actual = {**quotient_info(fx.lattice).to_json(),
                  "hnf_basis": [list(r) for r in fx.lattice.hnf_basis],
                  "verdict": verdict(fx.ctx, fx.lattice).status.value}
        if "degrees_in_lattice" in expected:
            degrees = s1_action_vector(expected["degrees_in_lattice"])
            expected["degrees_in_lattice"] = True
            actual["degrees_in_lattice"] = degrees.holds_in(fx.lattice)
    unknown = sorted(set(expected) - set(actual))
    if unknown:
        raise ValidationError(
            f"fixture {fx.name} expects keys no engine produces: {unknown}")
    checks = {key: {"expected": want, "actual": actual[key],
                    "ok": want == actual[key]}
              for key, want in expected.items()}
    return {"name": fx.name, "checks": checks,
            "ok": all(c["ok"] for c in checks.values())}
