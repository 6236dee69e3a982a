"""Package re-exports that resolve on first use (PEP 562).

``from repro.service import ServiceNode`` should cost the modules
``ServiceNode`` needs, not every module the package re-exports: a node
process that imports one name from ``repro.sim`` used to pull in the
scheduler, the round analyzer and numpy on its way.  A package
``__init__`` hands its re-export table to :func:`lazy_exports` and binds
the two functions it returns::

    __getattr__, __dir__ = lazy_exports(
        globals(),
        {"node": ("ServiceNode", "ServiceNodeSnapshot"), "wire": ("ServiceEnvelope",)},
    )

The first access to ``repro.service.ServiceNode`` imports
``repro.service.node``, stores the object in the package's globals and
returns it; later accesses find it there and never reach
``__getattr__`` again.  ``__all__`` stays a literal list in the
``__init__`` (``from pkg import *`` resolves each name through the same
path), and ``dir(pkg)`` lists the lazy names whether resolved or not.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    namespace: dict[str, Any],
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Build a package's module-level ``__getattr__`` and ``__dir__``.

    Args:
        namespace: the package's ``globals()``.
        exports: submodule (relative to the package, dots allowed) ->
            names re-exported from it.
        submodules: submodules re-exported whole, as modules.
    """
    package = namespace["__name__"]
    submodules = tuple(submodules)
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(import_module(f"{package}.{origin[name]}"), name)
        elif name in submodules:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin, *submodules})

    return __getattr__, __dir__
