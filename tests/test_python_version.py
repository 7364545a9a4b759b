"""The oldest Python that ``requires-python`` names can parse every source file.

Every ``.py`` file under ``src/``, ``tests/`` and ``bench/`` goes through
`ast.parse` with ``feature_version`` set to the version in ``pyproject.toml``
(3.9), which refuses newer syntax such as a ``match`` statement.  This checks
grammar only, not library APIs: a call that 3.9's standard library or numpy
lacks (``zip(strict=True)``, say) still passes here.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
OLDEST = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT).groups()))
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_the_oldest_version(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST)


def test_newer_grammar_is_refused():
    with pytest.raises(SyntaxError, match="only supported in Python 3.10"):
        ast.parse("match x:\n    case 1:\n        pass\n", feature_version=OLDEST)
