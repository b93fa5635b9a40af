"""Source hygiene of the engine: no unused imports, no uncalled private
functions, no public function that only tests call.  Standard library
ast only."""

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


def functions(tree):
    """(qualified name, def) of every top-level function and every
    method of a top-level class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield "%s.%s" % (top.name, node.name), node


def references(tree):
    """(name, enclosing function or method, by qualified name, or None,
    whether it is an attribute) of every name the module reads, as a
    bare name or as an attribute; a name being assigned is no
    reference."""
    owners = {id(node): qualname for qualname, def_ in functions(tree)
              for node in ast.walk(def_)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Store):
            continue
        if isinstance(node, ast.Name):
            out.add((node.id, owners.get(id(node)), False))
        elif isinstance(node, ast.Attribute):
            out.add((node.attr, owners.get(id(node)), True))
    return out


def engine_references():
    """(module, name, owner, is_attribute) of every reference in src/,
    as references gives them, and (None, name, None, False) of every
    imported name."""
    refs = set()
    for module, tree in MODULES.items():
        refs |= {(module,) + ref for ref in references(tree)}
        refs |= {(None, name, None, False) for name in imported_names(tree)}
    return refs


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for module, tree in MODULES.items():
        used = {ref[0] for ref in references(tree)} | exported_names(tree)
        unused += ["%s.py:%d imports %s" % (module, line, name)
                   for name, line in imported_names(tree).items()
                   if name not in used]
    assert unused == []


def test_every_private_function_is_referenced():
    refs = engine_references()
    uncalled = []
    for module, tree in MODULES.items():
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("_")):
                continue
            # a reference from another module, or from elsewhere in its own
            if not any(name == node.name
                       and (mod != module or owner != node.name)
                       for mod, name, owner, _ in refs):
                uncalled.append("%s.%s" % (module, node.name))
    assert uncalled == []


# Public functions that nothing in src/ names, each kept for a caller
# outside it.
KEPT = {
    "scalars.series_inverse":
        "perfbench/tracer.py times it; it leaves with that tracer group",
    "terms.Algebra.normalize": "perfbench/run.py calls it on parsed states",
    "terms.Algebra.B":
        "tests build the coordinate state x_i through it, at 35 call "
        "sites, and perfbench/tests at two",
    "terms.clear_caches": "perfbench/run.py empties the memos through it",
    "geometry.build_J_in_new_coordinates":
        "the test that J glues across charts rebuilds J through it",
    "geometry.EndoTensor.squares_to_minus_id":
        "a precondition of the N=2 structure on an input tensor",
    "geometry.EndoTensor.is_metric_compatible":
        "a precondition of the N=2 structure on an input tensor",
}


def is_property(node):
    return any(isinstance(d, ast.Name)
               and d.id in ("property", "cached_property")
               for d in node.decorator_list)


def test_every_public_function_has_an_engine_caller():
    """Each public function and method, dunders and properties aside,
    must be named in src/ outside its own body, be listed in an
    __all__, or be kept in KEPT with its reason.  A function counts
    through a bare name or an attribute, a method only through an
    attribute x.name, and a name being assigned never counts: a loop
    variable B calls no Algebra.B.  The check goes by name, so a method
    passes when any x.name matches it: Algebra.zero passes by
    CoeffFunction.zero."""
    refs = engine_references()
    exported = set().union(*map(exported_names, MODULES.values()))
    uncalled = []
    for module, tree in MODULES.items():
        for qualname, node in functions(tree):
            if (node.name.startswith("_") or node.name in exported
                    or is_property(node)):
                continue
            method = qualname != node.name
            if not any(name == node.name and (attr or not method)
                       and (mod != module or owner != qualname)
                       for mod, name, owner, attr in refs):
                uncalled.append("%s.%s" % (module, qualname))
    assert sorted(set(uncalled) - set(KEPT)) == []
    # an entry whose function gained a caller, or left, leaves KEPT
    assert sorted(set(KEPT) - set(uncalled)) == []
