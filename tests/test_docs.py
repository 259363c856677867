"""The caps stated in docs/schemas/inputs.md are the library's constants."""

import re
from importlib import import_module
from pathlib import Path

INPUTS = Path(__file__).resolve().parents[1] / "docs" / "schemas" / "inputs.md"

CAPS = [
    "circle.MAX_DEFECT_TRIALS",
    "cli.MAX_INT_DIGITS",
    "coset.MAX_CVP_NODES",
    "coset.MAX_SUP_MOVES",
    "groups.CLOSURE_CAP",
    "groups.MAX_DEGREE",
    "lattice.MAX_DIM",
]


def test_each_cap_is_stated_once_with_its_value():
    # Each cap reads `module.NAME = expr`, expr an integer expression in
    # which ^ is a power.
    stated = re.findall(r"`(\w+\.[A-Z_]+) = ([^`]+)`", INPUTS.read_text())
    assert sorted(name for name, _ in stated) == CAPS
    for name, expr in stated:
        assert re.fullmatch(r"[0-9*^ ()]+", expr), f"{name}: {expr!r}"
        value = eval(expr.replace("^", "**"), {"__builtins__": {}})
        module, attr = name.split(".")
        assert value == getattr(import_module(f"rotnorm.{module}"), attr), name
