"""Lazy package re-exports (PEP 562).

Every ``repro`` package keeps its docstring but imports no submodule
up front. Instead it hands :func:`lazy_exports` its re-exports grouped
by defining submodule and binds the returned module-level
``__getattr__``, ``__dir__`` and ``__all__`` (a package with eager
names lists those first), so each public name is declared once. A
re-exported name is imported the first time it is looked up and then
cached in the package namespace, so a study loads only the modules it
actually runs and later lookups cost a dict hit.

Two kinds of name stay eager imports in the package itself (DESIGN.md,
"Import rule"): a name that shadows its own submodule (``repro.cli.main``,
``repro.telemetry.percentile``; importing the submodule would otherwise
bind the module object over the lazy name), and a name something looks
up in ``vars(package)`` rather than through ``getattr``
(``repro.access.interleave``). Nor may code rely on a package import's
side effects: the tax-function categories, for one, are declared in
:mod:`repro.workloads.base` rather than registered by the generators.

This module imports nothing from ``repro``, so ``import repro`` loads it
and nothing else.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
        package: str, exports: Mapping[str, Iterable[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``__getattr__``, ``__dir__`` and lazy names for one package.

    Args:
        package: The package's ``__name__``.
        exports: Defining submodule, relative to *package* (``"window"``
            or a subpackage such as ``"soft"``) -> the names it
            re-exports.

    Returns:
        ``(__getattr__, __dir__, names)``, to assign at package level;
        ``names`` lists the lazy names in table order, for ``__all__``.
    """
    table: Dict[str, str] = {}
    for submodule, names in exports.items():
        for name in names:
            table[name] = f"{package}.{submodule}"

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)
