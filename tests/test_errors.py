"""Every exception class in ``rotnorm.errors`` is raised by the library, so a
change that deletes a class's last raiser deletes the class too."""

import ast
import inspect
from pathlib import Path

from rotnorm import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "rotnorm"

#: Bases that group the others; they need no raiser of their own.
BASES = {"RotnormError", "ValidationError"}


def _raised_names():
    """The name of each class a ``raise`` statement in the library raises,
    called or not, bare or through a module attribute."""
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__}
    assert BASES < classes
    unraised = sorted(classes - BASES - _raised_names())
    assert unraised == [], f"no library code raises {unraised}"
