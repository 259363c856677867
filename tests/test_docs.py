"""The caps stated in docs/schemas/inputs.md are the library's constants,
each cap's error names it, and the doc's bound on an error line is the one
the CLI tests enforce."""

import re
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

from rotnorm import circle, cli, coset, groups, lattice
from rotnorm.errors import ValidationError

INPUTS = Path(__file__).resolve().parents[1] / "docs" / "schemas" / "inputs.md"

CAPS = [
    "circle.MAX_DEFECT_TRIALS",
    "circle.MAX_FRAME_DIGITS",
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


#: Each cap's name -> a call that passes it: CLOSURE_CAP and MAX_CVP_NODES
#: at a small patched value, the others through their inputs.
_PASS_CAP = {
    "circle.MAX_DEFECT_TRIALS":
        lambda: circle.defect_experiment(0, circle.MAX_DEFECT_TRIALS + 1),
    "circle.MAX_FRAME_DIGITS": lambda: circle.PLCircleDiffeo(
        [Fraction(1, 10 ** circle.MAX_FRAME_DIGITS)], [0]),
    "cli.MAX_INT_DIGITS": lambda: cli._capped("9" * (cli.MAX_INT_DIGITS + 1)),
    # Z x {0} at (0, 3): theta takes 8 CVP nodes
    "coset.MAX_CVP_NODES": lambda: coset.theta(coset.AffineCoset.build(
        lattice.normalize([(1, 0)]), (0, 3))),
    "coset.MAX_SUP_MOVES": lambda: coset.theta_sup(
        lattice.normalize([(1, 0), (0, 10**9)]), Fraction(1, 2)),
    "groups.CLOSURE_CAP": lambda: groups.generate_group(
        [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]),  # A5, 60 elements
    "groups.MAX_DEGREE": lambda: groups.validate_perm(list(range(13))),
    "lattice.MAX_DIM": lambda: lattice.normalize([], 9),
}
_PATCHED = {"coset.MAX_CVP_NODES": 7, "groups.CLOSURE_CAP": 10}


@pytest.mark.parametrize("name", CAPS)
def test_each_cap_error_names_its_cap(name, monkeypatch):
    module, attr = name.split(".")
    if name in _PATCHED:
        monkeypatch.setattr(import_module(f"rotnorm.{module}"), attr,
                            _PATCHED[name])
    value = getattr(import_module(f"rotnorm.{module}"), attr)
    with pytest.raises(ValidationError) as info:
        _PASS_CAP[name]()
    assert f"the cap {name} = {value}" in str(info.value)


def test_error_line_bound_is_the_tested_one():
    from test_cli import ERROR_LINE_BYTES

    stated = re.findall(r"error\s+line\s+is\s+at\s+most\s+(\d+)\s+bytes",
                        INPUTS.read_text())
    assert list(map(int, stated)) == [ERROR_LINE_BYTES]
