"""Every module-level import in src/covop is used by its module, every name
in ``covop.__all__`` resolves, and every module-level function and class of
src/covop is named somewhere outside its own definition."""

import ast
from pathlib import Path

import covop

SRC = Path(covop.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# (module, name): bound on purpose though the module never reads it.
KEPT = set()


def unused_imports(path):
    """Names bound by the module's top-level imports that no Name node of the
    module reads and its ``__all__`` does not list."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_no_unused_module_level_import():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(path)}
    assert found == KEPT


def test_every_public_name_resolves():
    # the unused-import check counts ``__all__`` entries as used, so a stale
    # entry for a name that is gone would pass it
    missing = [name for name in covop.__all__ if not hasattr(covop, name)]
    assert missing == []


# (module, name): defined on purpose though no code names it; cli.main looks
# its subcommand handlers up by name.
KEPT_DEFINITIONS = {("cli", "cmd_coeffs"), ("cli", "cmd_operator"), ("cli", "cmd_verify")}


def _names(node):
    """Every name a Name or an Attribute node under ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_dead_module_level_definition():
    # a name counts when the package, a demo or covop.__all__ names it
    # outside the definition itself (a recursive call does not count)
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    paths = [*sorted(SRC.glob("*.py")), *demos]
    nodes = [(path, node) for path in paths
             for node in ast.parse(path.read_text(encoding="utf-8")).body]
    names = [_names(node) for _, node in nodes]
    dead = set()
    for k, (path, node) in enumerate(nodes):
        if path.parent == SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name not in covop.__all__ and not any(
                    node.name in seen for j, seen in enumerate(names) if j != k):
                dead.add((path.stem, node.name))
    assert dead == KEPT_DEFINITIONS
