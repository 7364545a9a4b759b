"""The public names: every name that a module exports exists."""

import importlib

import finitekey


def test_every_exported_name_resolves():
    for module in ("bounds", "security", "optimizer", "simulator", "cli"):
        mod = importlib.import_module(f"finitekey.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"finitekey.{module}: {missing}"
    namespace = {}
    exec("from finitekey import *", namespace)
    assert not set(finitekey.__all__) - set(namespace)
