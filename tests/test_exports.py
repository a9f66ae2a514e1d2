"""The package's exports: every listed name resolves, and the package list
covers the public names of each library submodule and nothing else."""

import importlib
import inspect
import pkgutil

import pytest

import penphase
from penphase import errors

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(penphase.__path__))

#: Submodules without an ``__all__``: the command line and the SVG writer.
_NO_ALL = {"cli", "svgplot"}


def test_package_names_resolve():
    missing = [name for name in penphase.__all__ if not hasattr(penphase, name)]
    assert missing == []
    assert len(set(penphase.__all__)) == len(penphase.__all__)
    # the package adds nothing of its own beyond the submodules' lists
    listed = {
        public for name in SUBMODULES if name not in _NO_ALL
        for public in importlib.import_module(f"penphase.{name}").__all__
    }
    assert set(penphase.__all__) - listed == {"__version__"}


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_resolve_and_are_reexported(name):
    module = importlib.import_module(f"penphase.{name}")
    if name in _NO_ALL:
        assert not hasattr(module, "__all__")
        return
    for public in module.__all__:
        assert getattr(penphase, public) is getattr(module, public), public
    assert set(module.__all__) <= set(penphase.__all__)


def test_every_exception_is_exported():
    defined = {n for n, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined and defined <= set(penphase.__all__)
    assert all(getattr(penphase, n) is getattr(errors, n) for n in defined)
