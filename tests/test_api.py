import ast
import importlib
import re
from pathlib import Path

import pytest

import padicdyn


@pytest.mark.parametrize("module", ["padic", "dynamics", "ergodicity", "periodic",
                                    "conjugation", "errors"])
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


def _module_lists() -> dict[str, list[str]]:
    """Each package module's __all__, by module name; cli has none."""
    package = Path(padicdyn.__file__).parent
    modules = [importlib.import_module(f"padicdyn.{path.stem}")
               for path in sorted(package.glob("*.py")) if path.stem != "__init__"]
    return {mod.__name__.removeprefix("padicdyn."): list(mod.__all__)
            for mod in modules if hasattr(mod, "__all__")}


def test_every_exported_name_is_used_by_the_library_or_the_benchmark():
    # public API that nothing runs belongs in tests/ or nowhere
    package = Path(padicdyn.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    used = _loaded_names(sorted(package.glob("*.py")) + sorted(perfbench.glob("*.py")))
    unused = [f"{module}.{name}" for module, names in _module_lists().items()
              for name in names if name not in used]
    assert unused == []


def test_the_package_exports_the_union_of_the_module_lists():
    # the public API is written once, in the modules; the package re-exports it
    union = [name for names in _module_lists().values() for name in names]
    assert len(set(union)) == len(union)
    assert sorted(padicdyn.__all__) == sorted(union)
    assert [name for name in padicdyn.__all__ if not hasattr(padicdyn, name)] == []


def test_the_readme_tour_lists_each_modules_public_names():
    # one row per module, whose names column is exactly that module's __all__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `padicdyn\.(\w+)` \| ([^|]*) \|", readme, re.M)
    assert {module: sorted(re.findall(r"`(\w+)`", names)) for module, names in rows} == {
        module: sorted(names) for module, names in _module_lists().items()}
