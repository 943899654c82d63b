"""Layout guards on the source tree.

The integer tensor format belongs to tensor.py alone, the reference tables
are integers, and every public function or method in src has a caller in
src or is a CLI entry point, so dead code shows up as soon as it appears.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "paratwin"

#: public names with no caller in src, each kept for one reason
UNCALLED = {
    "scale": "with +, - and negation, the tests' rational reference for lincomb",
    "tensor_equal": "the tests' rational reference for == on the integer storage",
    "torsion": "the tests' torsion tensor; koszul checks the same terms with vanishes",
}


def modules(*dirs: Path):
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_module_imports_private_tensor_names():
    offenders = []
    for path, tree in modules(SRC, ROOT / "tests"):
        if path == SRC / "tensor.py":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[-1] == "tensor"):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert offenders == []


def public_definitions(tree: ast.Module):
    """Public module functions and methods: (name, node)."""
    for node in tree.body:
        bodies = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in bodies:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item.name, item


def test_every_public_function_has_a_caller():
    trees = dict(modules(SRC))
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    referenced |= {target.rpartition(":")[2] for target in scripts.values()}
    uncalled = {name for tree in trees.values()
                for name, _ in public_definitions(tree) if name not in referenced}
    assert uncalled == set(UNCALLED)


def test_reference_tables_are_integers():
    """tables.py works in integers: it imports neither fractions nor Q."""
    tree = ast.parse((SRC / "tables.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
    assert not imported & {"fractions", "Fraction", "Q"}, imported
