"""The package keeps to the oldest Python that ``pyproject.toml`` allows
(``requires-python``): every module of ``src/penphase`` parses under that
version's grammar, and none uses a ``math`` function added after it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "penphase").glob("*.py"))
FLOOR = tuple(
    int(part) for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)

#: ``math`` functions added after Python 3.10, with the version of each.
MATH_ADDED = {"cbrt": (3, 11), "exp2": (3, 11), "sumprod": (3, 12), "fma": (3, 13)}


def _math_names(tree):
    """Names the module reads from ``math``: ``math.<name>`` and
    ``from math import <name>``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math":
                yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from (alias.name for alias in node.names)


def test_every_module_is_checked():
    assert {"sweep.py", "spectral.py", "phases.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_keeps_to_the_python_floor(path):
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
    newer = {name for name in _math_names(tree) if MATH_ADDED.get(name, FLOOR) > FLOOR}
    assert not newer, f"math functions newer than Python {FLOOR}: {sorted(newer)}"
