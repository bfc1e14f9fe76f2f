"""The package's surface: its public names, and no code that only tests run."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import immersion_forge
from immersion_forge import expr as ex

SRC = Path(immersion_forge.__file__).parent

# defined in the package but called from outside it only
ALLOWED_UNREFERENCED = {
    "ConnectionField.coefficients",     # wrapped by perfbench/tracer.py
    "Immersion.sample",                 # wrapped by perfbench/tracer.py
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(dotted name, node) of each top-level function and class and of each
    method of a top-level class, dunders left out."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not _is_dunder(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not _is_dunder(item.name)):
                    yield f"{node.name}.{item.name}", item


def _references(node):
    """Count of each identifier under ``node``: names, attributes and
    string constants."""
    return Counter(
        sub.id if isinstance(sub, ast.Name)
        else sub.attr if isinstance(sub, ast.Attribute) else sub.value
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
        or (isinstance(sub, ast.Constant) and isinstance(sub.value, str)))


def test_every_definition_in_src_is_used_by_the_package():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))]
    refs = sum((_references(tree) for tree in trees), Counter())
    unreferenced = set()
    for tree in trees:
        for dotted, node in _definitions(tree):
            name = node.name
            # a use inside its own definition (recursion) does not count
            if refs[name] - _references(node)[name] > 0:
                continue
            if "." not in dotted and name in immersion_forge.__all__:
                continue
            unreferenced.add(dotted)
    assert unreferenced == ALLOWED_UNREFERENCED


def test_no_function_in_src_imports():
    """Every import is at module level: no import cycle is hidden in a
    function body."""
    inside = [f"{path.name}:{sub.lineno}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for sub in ast.walk(node)
              if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert inside == []


def test_structure_view_has_one_path():
    """A hypersurface reaches its structure through cli.as_structure only:
    it is the one caller of extract_structure and check_on_model."""
    callers = {"extract_structure": set(), "check_on_model": set()}

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef

        def visit_Call(self, node):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in callers:
                callers[name].add(".".join(self.scope))
            self.generic_visit(node)

    for path in sorted(SRC.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text(encoding="utf-8")))
    assert callers == {"extract_structure": {"cli.as_structure"},
                       "check_on_model": {"cli.as_structure"}}


def _assigned_or_defined(tree):
    """Each function, class and method name of a module, and each name and
    attribute it assigns."""
    for sub in ast.walk(tree):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            yield sub.name
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            yield sub.attr


def test_no_module_reads_another_modules_private_names():
    """An underscore attribute (not a dunder) read off anything but
    ``self`` is one the reading module defines: no module in the package
    reaches into another's private names."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined = {name: set(_assigned_or_defined(tree))
               for name, tree in trees.items()}
    foreign = [f"{name}:{sub.lineno} {sub.attr}"
               for name, tree in trees.items() for sub in ast.walk(tree)
               if isinstance(sub, ast.Attribute)
               and isinstance(sub.ctx, ast.Load)
               and sub.attr.startswith("_") and not _is_dunder(sub.attr)
               and getattr(sub.value, "id", None) != "self"
               and sub.attr not in defined[name]
               and any(sub.attr in defined[other] for other in defined)]
    assert foreign == []


@pytest.mark.parametrize("module", [immersion_forge, ex])
def test_star_import_resolves_every_public_name(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)
