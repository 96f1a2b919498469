"""Lazy package namespaces (PEP 562).

A package ``__init__`` names the submodule that defines each of its
public names, and a name's submodule is imported the first time the name
is looked up. So importing one submodule (``repro.config``,
``repro.core.simulator``) loads only what that submodule imports, not
every sibling the package re-exports::

    __getattr__, __dir__ = lazy_exports(globals(), {
        ".bus": ("EventBus", "EventRecorder"),
        ".metrics": ("MetricsRegistry",),
    })

``from pkg import name`` and ``from pkg import *`` work as with eager
imports; ``__all__`` stays a plain list in the package.
"""

from importlib import import_module


def lazy_exports(namespace, table, submodules=()):
    """The module ``__getattr__`` and ``__dir__`` of a package.

    ``namespace`` is the package's ``globals()``; ``table`` maps a
    relative submodule name to the names it exports, and ``submodules``
    names submodules exported as themselves. A resolved name is stored
    in ``namespace``, so later lookups never reach ``__getattr__``.
    """
    package = namespace["__name__"]
    home = {name: module for module, names in table.items()
            for name in names}
    home.update((name, None) for name in submodules)

    def __getattr__(name):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = home[name]
        value = namespace[name] = (
            import_module(f".{name}", package) if module is None
            else getattr(import_module(module, package), name))
        return value

    def __dir__():
        return sorted(namespace.keys() | home.keys())

    return __getattr__, __dir__
