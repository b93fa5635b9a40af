"""Source hygiene of the engine: no unused imports, no uncalled private
functions.  Standard library ast only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "scdr"
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}


def imported_names(tree):
    """{bound name: line} of every import of the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module != "__future__":
                    out[alias.asname or alias.name] = node.lineno
    return out


def exported_names(tree):
    """The strings listed in the module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def references(tree):
    """(name, enclosing top-level def or None) of every name the module
    reads, as a bare name or as an attribute."""
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.add((node.attr, owner))
    return out


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in MODULES.items():
        used = {name for name, _ in references(tree)} | exported_names(tree)
        unused += ["%s.py:%d imports %s" % (module, line, name)
                   for name, line in imported_names(tree).items()
                   if name not in used]
    assert unused == []


def test_every_private_function_is_referenced():
    refs = set()
    for module, tree in MODULES.items():
        refs |= {(module, name, owner) for name, owner in references(tree)}
        refs |= {(None, name, None) for name in imported_names(tree)}
    uncalled = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")):
                continue
            # a reference from another module, or from elsewhere in its own
            if not any(name == node.name
                       and (mod != module or owner != node.name)
                       for mod, name, owner in refs):
                uncalled.append("%s.%s" % (module, node.name))
    assert uncalled == []
