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
from rotnorm.errors import ValidationError, quoted
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
        raise ValidationError(f"unknown fixture: {quoted(name)}")
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
                  "verdict": verdict(fx.ctx, W).status}
    else:
        actual = {**quotient_info(fx.lattice).to_json(),
                  "hnf_basis": [list(r) for r in fx.lattice.hnf_basis],
                  "verdict": verdict(fx.ctx, fx.lattice).status}
        if "degrees_in_lattice" in expected:
            actual["degrees_in_lattice"] = member(
                fx.lattice, expected["degrees_in_lattice"])
            expected["degrees_in_lattice"] = True
    unknown = sorted(set(expected) - set(actual))
    if unknown:
        raise ValidationError(
            f"fixture {fx.name} expects keys no engine produces: {unknown}")
    checks = {key: {"expected": want, "actual": actual[key],
                    "ok": want == actual[key]}
              for key, want in expected.items()}
    return {"name": fx.name, "checks": checks,
            "ok": all(c["ok"] for c in checks.values())}
