"""The public names: one list per module, and the package takes its names from them."""

import importlib
import re
from pathlib import Path

import pytest

import finitekey

LIBRARY = ("bounds", "optimizer", "security", "simulator")


def test_every_exported_name_resolves():
    for module in (*LIBRARY, "cli"):
        mod = importlib.import_module(f"finitekey.{module}")
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"finitekey.{module}: {missing}"
    namespace = {}
    exec("from finitekey import *", namespace)
    assert not set(finitekey.__all__) - set(namespace)


def test_package_exports_the_library_modules_names():
    names = {"__version__"}
    for module in LIBRARY:
        names.update(importlib.import_module(f"finitekey.{module}").__all__)
    assert set(finitekey.__all__) == names
    assert len(finitekey.__all__) == len(names)


@pytest.mark.parametrize(
    "module, name",
    [
        ("bounds", "hush_scovel_tail"),
        ("bounds", "serfling_lower_tail"),
        ("security", "correctness_bits"),
    ],
)
def test_deleted_names_are_gone(module, name):
    # the two-term bound calls the kernels, and SecurityBudget.t owns t
    assert not hasattr(importlib.import_module(f"finitekey.{module}"), name)
    assert not hasattr(finitekey, name)


def test_readme_lists_every_exported_name():
    # the library table left out nine of the exported names
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for module in LIBRARY:
        row = next(
            line for line in readme.splitlines()
            if line.startswith(f"| `finitekey.{module}` |")
        )
        listed = re.findall(r"`(\w+)`", row.split("|")[2])
        assert listed == importlib.import_module(f"finitekey.{module}").__all__


def test_readme_example_prints_what_it_shows(capsys):
    # the comment under the library example's print is its output, so a
    # change that moves C1's point has to update the README
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    shown = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    exec(code, {})
    assert shown and capsys.readouterr().out.splitlines() == shown
