"""The names: public ones in one list per module, which the package takes
its names from, and private ones that the package itself uses."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

import finitekey

LIBRARY = ("bounds", "optimizer", "security", "simulator")
SOURCE = Path(__file__).parents[1] / "src" / "finitekey"


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
        ("simulator", "default_serfling_bound"),
    ],
)
def test_deleted_names_are_gone(module, name):
    # the two-term bound calls the kernels, SecurityBudget.t owns t, and
    # validate_bounds squares serfling_epe itself
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


def _definitions(tree):
    """``(name, node)`` of each module-level function, class and constant of
    a module, and of each method of its classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(node):
    """How often each name is read under ``node``, as a name or an attribute."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
        or (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load))
    )


def test_package_uses_every_private_name():
    # a private helper that only the tests call belongs in the tests; names
    # are matched by name alone, which is exact while no two modules define
    # the same private name
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if name.startswith("_")
        and not (name.startswith("__") and name.endswith("__"))
        and used[name] <= _references(node)[name]
    ]
    assert not unused


def test_every_import_is_read():
    # an import that no code of its module reads is kept only for the
    # benchmark's TARGETS, which wrap these two module attributes
    unread = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in read:
                        unread.add(f"{path.stem}.{name}")
    assert unread == {"optimizer.ec_leakage", "security.binary_entropy"}
