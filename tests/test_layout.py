"""Layout guards on the source tree.

The integer tensor format is built in tensor.py alone and read only by
the modules in STORAGE_READERS: tensor itself, and family, whose
reference tables compare by cross-multiplying integers.  Every other
module asks the kernel (lincomb, vanishes, a Residual's nonzero() and
component()).  The reference tables are integers, and every public
function or method in src has a caller in src or is a CLI entry point,
so dead code shows up as soon as it appears.  tensor.py
exports only the kernel (TENSOR_PUBLIC): a map on one slot is a product
term written where it is used, not a wrapper.
"""

import ast
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "paratwin"

#: the public names of tensor.py: constructors and storage, the two ways
#: to sum terms, the residual one of them returns, and the metric inverse
TENSOR_PUBLIC = {"TensorDense", "Residual", "lincomb", "vanishes", "inverse", "UP", "DOWN"}


#: the src modules that read a tensor's integer storage
STORAGE_READERS = {"tensor", "family"}

#: the attributes of that storage: TensorDense's den, nums and support, and
#: a Residual's acc
STORAGE = {"den", "nums", "support", "acc"}


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


def test_only_the_listed_modules_read_integer_storage():
    readers = {path.stem for path, tree in modules(SRC) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in STORAGE}
    assert readers == STORAGE_READERS


def test_only_tensor_reads_a_residuals_accumulator():
    """A Residual's acc is a list or a dict; other modules ask it for
    nonzero() and component() instead of reading either form."""
    readers = {path.stem for path, tree in modules(SRC) for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "acc"}
    assert readers == {"tensor"}


def public_definitions(tree: ast.Module):
    """Public module functions and methods: (name, is a method)."""
    for node in tree.body:
        in_class = isinstance(node, ast.ClassDef)
        for item in node.body if in_class else [node]:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield item.name, in_class


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_bindings(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds in its own
    scope: its parameters or comprehension targets, and every name stored,
    imported or defined in its body outside nested scopes, less those
    declared global."""
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        bound = {a.arg for a in params if a is not None}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        bound, todo = set(), [g.target for g in scope.generators]
    declared_global = set()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global |= set(node.names)
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return bound - declared_global


def module_level_reads(node: ast.AST, bound: frozenset = frozenset()):
    """Every name read under node that no enclosing function, lambda or
    comprehension binds, so that it resolves to a module-level name."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in bound:
            yield node.id
        return
    if isinstance(node, SCOPES):
        inner = bound | local_bindings(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # decorators and defaults are read in the outer scope; annotations
            # call nothing
            outer = [*getattr(node, "decorator_list", ()), *node.args.defaults,
                     *filter(None, node.args.kw_defaults)]
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in outer:
                yield from module_level_reads(child, bound)
            for child in body:
                yield from module_level_reads(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            yield from module_level_reads(child, inner)
        return
    for child in ast.iter_child_nodes(node):
        yield from module_level_reads(child, bound)


def test_every_public_function_has_a_caller():
    """A method counts as called only through an attribute access, and a
    module function only through a module-level name or an attribute of an
    imported module, so a parameter or local variable named like a
    function does not hide dead code."""
    trees = dict(modules(SRC))
    module_names = {path.stem for path in trees} | {
        (a.asname or a.name).split(".")[0] for tree in trees.values()
        for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    attributes, module_attributes, names = set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in module_names:
                    module_attributes.add(node.attr)
        names |= set(module_level_reads(tree))
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    names |= {target.rpartition(":")[2] for target in scripts.values()}
    uncalled = {name for tree in trees.values() for name, method in public_definitions(tree)
                if name not in (attributes if method else names | module_attributes)}
    assert uncalled == set()


def test_tensor_exports_only_the_kernel():
    """Every public module-level name that tensor.py defines, so that a
    one-slot wrapper cannot come back unnoticed."""
    tree = ast.parse((SRC / "tensor.py").read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert {name for name in defined if not name.startswith("_")} == TENSOR_PUBLIC


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
