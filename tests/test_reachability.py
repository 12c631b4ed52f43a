"""The package holds what the verifier runs: every module-level name in
``src/overrank`` is reached from ``cli.main``, every method of a class so
reached is called from reached code, and the package namespace re-exports
nothing, so each name has one home.

A name that only tests use belongs with the tests, as the references in
``reference.py`` do.  Reachability is read from the source: a definition
reaches every name it mentions, through relative imports and through
``module.attr`` on an imported module, and the definitions so reached in turn.
"""

import ast
from pathlib import Path

import overrank

# the memo's stats API, which reports on the expansion cache for callers
# that tune it; the command line prints no cache statistics
EXEMPT = {("products", "expand_cache_info"), ("products", "ExpandCacheInfo")}


def _module(path):
    """(definitions, imports) of one module: each top-level function, class
    and assigned name with its node, and each name a relative import binds
    with the (module, name) it stands for, name None for a module."""
    defs, imports = {}, {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imports[alias.asname or alias.name] = \
                    (node.module, alias.name) if node.module else (alias.name, None)
    return defs, imports


MODULES = {path.stem: _module(path) for path in Path(overrank.__file__).parent.glob("*.py")}


def reached(roots):
    """Every (module, name) that the definitions of roots reach, roots included."""
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        defs, imports = MODULES[module]
        if name not in defs:
            target = imports.get(name)
            if target and target[1] is not None:  # a name imported from another module
                todo.append(target)
            continue
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                todo.append((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = imports.get(node.value.id)
                if target and target[1] is None:  # an attribute of an imported module
                    todo.append((target[0], node.attr))
    return seen


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_name_in_the_package_is_reached_from_the_cli():
    defined = {(module, name) for module, (defs, _) in MODULES.items() for name in defs
               if not _dunder(name)}
    assert EXEMPT <= defined
    assert sorted(defined - reached([("cli", "main")]) - EXEMPT) == []


def test_every_method_of_a_reached_class_is_called():
    """A method or property counts as called when reached code names it as
    an attribute, ``x.name``; operators reach only dunders, which are exempt."""
    nodes = [MODULES[module][0][name] for module, name in reached([("cli", "main")])
             if name in MODULES[module][0]]
    called = {node.attr for root in nodes for node in ast.walk(root)
              if isinstance(node, ast.Attribute)}
    methods = {(cls.name, node.name) for cls in nodes if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert sorted((cls, name) for cls, name in methods
                  if not _dunder(name) and name not in called) == []


def test_the_package_namespace_binds_only_its_version():
    """Every name is imported from its own module; the package re-exports none."""
    tree = ast.parse(Path(overrank.__file__).read_text())
    assert ast.get_docstring(tree)
    statements = [ast.unparse(node) for node in tree.body[1:]]
    assert len(statements) == 1 and statements[0].startswith("__version__ = "), statements


# ``lambert`` binds ``series.mul`` for the benchmark's layer trace, which
# checks that wrapping ``series.mul`` reaches that alias too
UNUSED_IMPORTS = {("lambert", "mul")}


def test_every_imported_name_is_used():
    """Each name a module of the package imports is named in it again."""
    unused = set()
    for path in Path(overrank.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in bound - used}
    assert sorted(unused - UNUSED_IMPORTS) == []
    assert UNUSED_IMPORTS <= unused
