"""Finite-block security calculator for entanglement-based QKD.

The package exports what its four library modules export: their
``__all__`` lists are the one list of public names.  It imports a library
module on first use of a name (PEP 562), so ``import finitekey`` and the
CLI's ``--help`` load no numpy.  A public name is looked up in the modules
in `_LIBRARY`'s order, each imported in turn until one lists it, and is
then bound here.
"""

import importlib
import sys

__version__ = "0.1.0"

_LIBRARY = ("bounds", "optimizer", "security", "simulator")


def __getattr__(name: str):
    if name in (*_LIBRARY, "cli"):
        # the submodule alone: `from finitekey import cli` asks for it first
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        value = [*(n for m in _LIBRARY for n in __getattr__(m).__all__), "__version__"]
    else:
        # a private name, such as a probe for `__wrapped__`, loads nothing
        modules = () if name.startswith("_") else map(__getattr__, _LIBRARY)
        module = next((m for m in modules if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    exported = sys.modules[__name__].__all__  # bound here from now on
    return sorted({*globals(), *exported, *_LIBRARY})
