"""Every module in the ``repro`` package imports cleanly.

Walks the package tree, so a module-level import of a deleted or renamed
module fails here even when no other test happens to import the module
that holds it.
"""

import importlib
import pkgutil

import pytest

import repro

#: ``__main__`` modules run their CLI on import, so they are left out
MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(repro.__path__, prefix="repro.")
                 if not info.name.endswith(".__main__"))


def test_walk_finds_the_package_tree():
    assert "repro.cli" in MODULES
    assert "repro.farm.farm" in MODULES
    assert "repro.core.simulator" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)
