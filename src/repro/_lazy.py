"""PEP 562 exports: a package ``__init__`` that names its public API without
importing it.

A package that calls :func:`attach` imports nothing at import time.  The
first access of an exported name imports the submodule that defines it; the
first access of a submodule name (``repro.api`` after a bare ``import
repro``) imports that submodule.  Either way the value is then stored in the
package namespace, so ``__getattr__`` runs once per name.
"""
from __future__ import annotations

import importlib
import sys


def attach(package: str, exports: dict[str, list[str]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``, where
    ``exports`` maps each submodule (relative name) to the public names it
    defines, in ``__all__`` order."""
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in where:
            value = getattr(importlib.import_module(f"{package}.{where[name]}"), name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
