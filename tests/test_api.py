import ast
import importlib
from pathlib import Path

import pytest

import padicdyn


@pytest.mark.parametrize("module", ["padic", "dynamics", "ergodicity", "periodic",
                                    "conjugation"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"padicdyn.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_no_bare_assert_in_the_library():
    # python -O strips assert statements, so no check in the library may be one
    found = []
    for path in sorted(Path(padicdyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
