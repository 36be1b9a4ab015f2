"""`src/c235` holds only what the program reaches.

Every top-level `def`, `class` and module constant in `src/c235/*.py` must be
reachable by name from `c235.cli`, `bench/*.py` or `demos/*.py`, through the
definitions that reference it. Code that only tests reach belongs in
`tests/oracles.py`. Every name a module imports must be used in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "c235"

# The generalised Chazy reduction is the paper's main theorem, which ROADMAP
# item 13 is to certify as exact identities on the ODE tables, so these stay in
# the package unreached, with the table and the jet kernel that only they read.
ALLOWED_UNREACHED = {
    ("chazy", "reduce_F_to_I"),
    ("chazy", "residual_gen_chazy"),
    ("chazy", "_chazy_table"),
    ("jets", "jet_log"),
}


def _names(node) -> set:
    """Every name, attribute and string constant that `node` mentions; an
    import binds a name but does not use it."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    return []


def _scan():
    """(definitions, roots): definitions map (module, name) to the names they
    reference; roots are the names the program mentions directly."""
    definitions = {}
    roots = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            if module == "cli" or not names:
                # the CLI is the program; statements that define nothing run on import
                roots |= _names(stmt)
            for name in names:
                definitions[(module, name)] = _names(stmt)
    for pattern in ("bench/*.py", "demos/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            roots |= _names(ast.parse(path.read_text()))
    return definitions, roots


def _unreached():
    definitions, frontier = _scan()
    seen = set()
    while frontier:
        seen |= frontier
        frontier = set().union(*(
            refs for (_, name), refs in definitions.items() if name in frontier
        )) - seen
    return {key for key in definitions if key[1] not in seen}


def test_every_src_definition_is_reached_by_the_program():
    unreached = _unreached()
    assert not unreached - ALLOWED_UNREACHED, (
        f"only tests reach these; move them to tests/oracles.py: {sorted(unreached - ALLOWED_UNREACHED)}")
    assert unreached == ALLOWED_UNREACHED, (
        f"reached now; drop them from ALLOWED_UNREACHED: {sorted(ALLOWED_UNREACHED - unreached)}")


def _unused_imports(tree) -> list:
    """The names that the imports of a module bind and that no name in it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_every_name_a_src_module_imports_is_used():
    unused = [f"{path.stem}: {name}" for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"  # its imports re-export the package's names
              for name in _unused_imports(ast.parse(path.read_text()))]
    assert not unused, f"imported and never used: {unused}"
