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


def _is_modular_inverse(node) -> bool:
    """Whether node is a call pow(x, -1, m)."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "pow" and len(node.args) == 3):
        return False
    exponent = node.args[1]
    return (isinstance(exponent, ast.UnaryOp) and isinstance(exponent.op, ast.USub)
            and isinstance(exponent.operand, ast.Constant) and exponent.operand.value == 1)


def test_modular_inverses_go_through_inverse_unit():
    # pow(x, -1, m) is quadratic in the bits of m; p-adic inverses are lifted
    found = []
    for name in ("padic", "dynamics", "periodic"):
        path = Path(padicdyn.__file__).parent / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "_inverse_unit"
                   for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _is_modular_inverse(node) and id(node) not in allowed]
    assert found == []


def _loaded_names(paths) -> set[str]:
    """Every name the files read: loaded identifiers and attribute names.

    Definitions, assignment targets, import lists and the strings of
    ``__all__`` are not reads, so a name only defined and exported is absent.
    """
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_exported_name_is_used_by_the_library_or_the_benchmark():
    # public API that nothing runs belongs in tests/ or nowhere
    package = Path(padicdyn.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    used = _loaded_names(sorted(package.glob("*.py")) + sorted(perfbench.glob("*.py")))
    unused = []
    for path in sorted(package.glob("*.py")):
        mod = importlib.import_module(f"padicdyn.{path.stem}")
        unused += [f"{path.stem}.{name}" for name in getattr(mod, "__all__", ())
                   if name not in used]
    assert unused == []
