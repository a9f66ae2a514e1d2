"""The package keeps to the oldest Python that ``pyproject.toml`` allows
(``requires-python``): every module of ``src/penphase`` parses under that
version's grammar, and none uses a standard-library module, function or
builtin added after it."""

import ast
import builtins
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "penphase").glob("*.py"))
FLOOR = tuple(
    int(part) for part in re.search(
        r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    ).groups()
)

#: Names added after Python 3.10 to the standard-library modules the package
#: imports (and to the builtins), with the version of each, from "What's New
#: in Python" 3.11 to 3.13. Platform-only names are left out. A module with
#: an empty table gained no name in those versions.
STDLIB_ADDED = {
    "builtins": {"ExceptionGroup": (3, 11), "BaseExceptionGroup": (3, 11),
                 "PythonFinalizationError": (3, 13)},
    "math": {"cbrt": (3, 11), "exp2": (3, 11), "sumprod": (3, 12), "fma": (3, 13)},
    "itertools": {"batched": (3, 12)},
    "operator": {"call": (3, 11)},
    "sys": {"exception": (3, 11), "monitoring": (3, 12)},
    "os": {"process_cpu_count": (3, 13)},
    "os.path": {"isjunction": (3, 12), "splitroot": (3, 12)},
    "enum": {
        **dict.fromkeys(
            ["StrEnum", "ReprEnum", "EnumType", "EnumCheck", "FlagBoundary", "verify",
             "member", "nonmember", "property", "global_enum", "show_flag_values"],
            (3, 11),
        ),
        "EnumDict": (3, 13),
    },
    "typing": {
        **dict.fromkeys(
            ["Self", "LiteralString", "Never", "TypeVarTuple", "Unpack", "Required",
             "NotRequired", "assert_never", "assert_type", "reveal_type",
             "dataclass_transform", "get_overloads", "clear_overloads"],
            (3, 11),
        ),
        "override": (3, 12), "TypeAliasType": (3, 12),
        **dict.fromkeys(
            ["ReadOnly", "TypeIs", "NoDefault", "get_protocol_members", "is_protocol"],
            (3, 13),
        ),
    },
    "__future__": {}, "argparse": {}, "concurrent.futures": {}, "dataclasses": {},
    "functools": {}, "json": {}, "numbers": {},
}

#: Standard-library modules added after Python 3.10.
MODULES_ADDED = {"tomllib": (3, 11), "wsgiref.types": (3, 11), "dbm.sqlite3": (3, 13)}


def _dotted(node):
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _stdlib_uses(tree):
    """(name, version) for each module, function or builtin of the tables
    that the module imports or reads."""
    bound = {}  # local name -> the module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                bound[local] = alias.name if alias.asname else local
                yield alias.name, MODULES_ADDED.get(alias.name, FLOOR)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, MODULES_ADDED.get(node.module, FLOOR)
            for alias in node.names:
                name = bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                yield name, MODULES_ADDED.get(
                    name, STDLIB_ADDED.get(node.module, {}).get(alias.name, FLOOR)
                )
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, STDLIB_ADDED["builtins"].get(node.id, FLOOR)
        elif isinstance(node, ast.Attribute):
            first, dot, rest = (_dotted(node.value) or "").partition(".")
            if first in bound:
                module = bound[first] + dot + rest
                yield f"{module}.{node.attr}", STDLIB_ADDED.get(module, {}).get(node.attr, FLOOR)


def test_every_module_is_checked():
    assert {"sweep.py", "spectral.py", "phases.py"} <= {path.name for path in MODULES}


def test_every_stdlib_import_has_a_table():
    imported = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module)
    stdlib = {name for name in imported if name.partition(".")[0] in sys.stdlib_module_names}
    assert stdlib and stdlib <= set(STDLIB_ADDED)


def test_tables_match_this_interpreter():
    # a name the running Python should have is there, and a later one is not
    here = sys.version_info[:2]
    for module, names in STDLIB_ADDED.items():
        namespace = builtins if module == "builtins" else importlib.import_module(module)
        for name, version in names.items():
            assert hasattr(namespace, name) == (version <= here), f"{module}.{name}"
    for module, version in MODULES_ADDED.items():
        assert (importlib.util.find_spec(module) is not None) == (version <= here), module


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_keeps_to_the_python_floor(path):
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
    newer = {name for name, version in _stdlib_uses(tree) if version > FLOOR}
    assert not newer, f"standard-library names newer than Python {FLOOR}: {sorted(newer)}"
