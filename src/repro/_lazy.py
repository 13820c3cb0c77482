"""Lazy package surfaces: a package's public names load on first use.

Every ``repro`` package re-exports its public names from its
submodules.  Importing them all when the package is imported makes any
``import repro.x.y`` pay for the whole tree (the parent packages'
``__init__`` run first), so each ``__init__`` declares instead *where*
its names live::

    lazy_surface(__name__, {
        "repro.core.monitor": ("Monitor", "MonitorFacade"),
        ...
    })

and the first ``pkg.Monitor`` / ``from pkg import Monitor`` imports
``repro.core.monitor``, binds the attribute on the package and returns
it — the identical object an eager ``from ... import`` would have
bound.  ``dir(pkg)``, ``__all__`` and ``from pkg import *`` see every
name; an unknown name raises :class:`AttributeError` naming the
package.  The ``if TYPE_CHECKING:`` imports beside each table are what
static tools read.

**The collision rule.**  When a re-exported name is also the name of a
submodule (``repro.core.normalize`` the function and
``repro/core/normalize.py``), the import system binds the *module* on
the package as soon as that submodule has been imported, and a lookup
hook is never consulted for an attribute that exists.  So the package
module gets a class of its own (the documented way to customise a
module: assign ``__class__`` to a :class:`types.ModuleType` subclass)
whose ``__setattr__`` refuses exactly that binding; the name then
resolves to the re-exported object in either import order.  A submodule
exported *as itself* (``repro.core.builder``) is bound as usual.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: name -> (module, attribute); attribute ``None`` exports the module
Exports = Dict[str, Tuple[str, Optional[str]]]


class LazyPackage(ModuleType):
    """A package module that resolves its re-exported names on demand."""

    __lazy__: Exports

    def __getattr__(self, name: str) -> object:
        try:
            module, attribute = self.__dict__["__lazy__"][name]
        except KeyError:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            ) from None
        value: object = import_module(module)
        if attribute is not None:
            value = getattr(value, attribute)
        self.__dict__[name] = value
        return value

    def __setattr__(self, name: str, value: object) -> None:
        target = self.__lazy__.get(name)
        if (target is not None and target[1] is not None
                and isinstance(value, ModuleType)):
            return  # the import system binding a submodule over a name
        super().__setattr__(name, value)

    def __dir__(self) -> Sequence[str]:
        return sorted({*super().__dir__(), *self.__lazy__})


def lazy_surface(package: str, exports: Mapping[str, Sequence[str]],
                 submodules: Sequence[str] = ()) -> None:
    """Make ``package`` resolve ``exports`` (module -> names) lazily.

    ``submodules`` are re-exported as the modules they are.
    """
    table: Exports = {
        name: (module, name)
        for module, names in exports.items() for name in names
    }
    for name in submodules:
        table[name] = (f"{package}.{name}", None)
    module = sys.modules[package]
    module.__dict__["__lazy__"] = table
    module.__class__ = LazyPackage
