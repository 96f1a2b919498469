"""Registry of runnable applications.

One place maps the short app names users type (CLI, JobSpec JSON) to
``repro.apps`` module paths and their supported variants.
Dotted module paths are also accepted everywhere a registry name is, so
out-of-tree app modules (e.g. the farm test fixtures) stay runnable; for
those the variant set is unknown and not checked.
"""

from __future__ import annotations

from typing import Optional, Tuple

#: app name -> (module path, variants)
APPS = {
    "mis": ("repro.apps.mis", ("flat", "swarm", "fractal")),
    "color": ("repro.apps.color", ("flat", "swarm", "fractal")),
    "msf": ("repro.apps.msf", ("flat", "swarm", "fractal")),
    "maxflow": ("repro.apps.maxflow", ("flat", "fractal")),
    "silo": ("repro.apps.silo", ("flat", "swarm", "fractal")),
    "zoomtree": ("repro.apps.zoomtree", ("fractal",)),
    "ssca2": ("repro.apps.stamp.ssca2", ("tm", "hwq", "fractal")),
    "vacation": ("repro.apps.stamp.vacation", ("tm", "hwq", "fractal")),
    "kmeans": ("repro.apps.stamp.kmeans", ("tm", "hwq", "fractal")),
    "genome": ("repro.apps.stamp.genome", ("tm", "hwq", "fractal")),
    "intruder": ("repro.apps.stamp.intruder", ("tm", "hwq", "fractal")),
    "labyrinth": ("repro.apps.stamp.labyrinth", ("tm", "hwq", "fractal")),
    "bayes": ("repro.apps.stamp.bayes", ("tm", "hwq", "fractal")),
    "yada": ("repro.apps.stamp.yada", ("tm", "hwq", "fractal")),
    "bfs": ("repro.apps.swarm.bfs", ("swarm",)),
    "sssp": ("repro.apps.swarm.sssp", ("swarm",)),
    "astar": ("repro.apps.swarm.astar", ("swarm",)),
    "des": ("repro.apps.swarm.des", ("swarm",)),
    "nocsim": ("repro.apps.swarm.nocsim", ("swarm",)),
    "spanning": ("repro.apps.pbbs.spanning",
                 ("flat", "swarm", "fractal", "specfor")),
    "contract": ("repro.apps.pbbs.contract",
                 ("flat", "swarm", "fractal", "specfor")),
    "refine": ("repro.apps.pbbs.refine",
               ("flat", "swarm", "fractal", "specfor")),
}

#: module path -> short registry name (for display)
MODULE_TO_NAME = {module: name for name, (module, _) in APPS.items()}


class UnknownAppError(KeyError):
    """App name not in the registry.

    Subclasses ``KeyError`` so existing ``except KeyError`` callers keep
    working, but renders a readable message (a raw ``KeyError`` turns
    ``str(exc)`` into the repr of its argument, quotes and all).
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:
        return (f"unknown app {self.name!r}; choose one of {sorted(APPS)} "
                f"or give a dotted module path")


def resolve_app(name: str) -> Tuple[str, Optional[Tuple[str, ...]]]:
    """Resolve ``name`` to ``(module_path, variants-or-None)``.

    ``name`` is either a registry key (``"mis"``) or a dotted module path
    (``"repro.apps.mis"``, ``"tests.farm._fakeapp"``). Dotted paths of
    registered modules resolve to that entry's variants so they are
    validated the same as the short name; other dotted paths return
    ``None`` (variants unknown, not checked). Unknown plain names raise
    :class:`UnknownAppError`.
    """
    entry = APPS.get(name)
    if entry is not None:
        return entry
    if "." in name:
        short = MODULE_TO_NAME.get(name)
        if short is not None:
            return name, APPS[short][1]
        return name, None
    raise UnknownAppError(name)
