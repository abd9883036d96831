"""Checks on the source of the finring package itself."""

import ast
import pathlib

import finring

PACKAGE = pathlib.Path(finring.__file__).resolve().parent


def _private_definitions_and_uses():
    """(module, name, node) for each private module-level function or class,
    and, per module-level statement, the names that statement reads."""
    defined, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append((path.stem, node.name, node))
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            uses.append((node, names))
    return defined, uses


def test_every_private_helper_is_used_outside_its_own_definition():
    # A helper that a change leaves without callers fails here; a recursive
    # call inside its own body does not count as a use.
    defined, uses = _private_definitions_and_uses()
    assert defined
    unused = [f"{module}.{name}" for module, name, node in defined
              if not any(name in names for other, names in uses if other is not node)]
    assert unused == []


def test_every_parameter_is_read():
    # A parameter that its function never reads as a name fails here, so a
    # change leaves no knob behind.  self is exempt, and so are lambdas:
    # scenario runners share one (p, cache) signature whether or not they
    # read both.
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}: {a.arg}" for a in params
                       if a.arg != "self" and a.arg not in read]
    assert unread == []


def test_every_import_is_used():
    # A module-level import that its module never names fails here, unless
    # the module re-exports it through __all__.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported = set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in named and name not in exported:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []
