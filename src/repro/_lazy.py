"""Lazy package attributes (PEP 562).

A package ``__init__`` lists the public names of its submodules and hands
them to :func:`attach`, which returns the module-level ``__getattr__``,
``__dir__`` and ``__all__``.  A name's submodule is imported on first
access, so importing one submodule (``repro.experiments.figures``, say) no
longer executes every sibling the package re-exports.  ``from repro.core
import lp_hta`` and ``from repro import *`` resolve exactly as eager
imports would.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    :param package: the package's ``__name__``.
    :param exports: relative submodule name → the public names it defines;
        an empty tuple exports the submodule itself under its own name.
    """
    # Public name → (defining module, attribute; None for the module itself).
    where: Dict[str, Tuple[str, Optional[str]]] = {}
    for module, names in exports.items():
        for name in names:
            where[name] = (f"{package}.{module}", name)
        if not names:
            where[module] = (f"{package}.{module}", None)

    def __getattr__(name: str) -> Any:
        if name not in where:
            return _submodule(package, name)
        module, attribute = where[name]
        owner = importlib.import_module(module)
        value = owner if attribute is None else getattr(owner, attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)


def _submodule(package: str, name: str) -> Any:
    """A submodule not imported yet, reached as an attribute: the eager
    package imports used to leave most of them reachable that way."""
    missing = AttributeError(f"module {package!r} has no attribute {name!r}")
    if name.startswith("__"):
        raise missing
    full = f"{package}.{name}"
    try:
        return importlib.import_module(full)
    except ModuleNotFoundError as error:
        if error.name != full:
            raise
        raise missing from None
