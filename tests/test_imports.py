"""Every module-level import in src/covop is used by its module, the package
alone imports nothing, and every module-level function and class of
src/covop is named somewhere in src/covop or demos/ outside its own
definition."""

import ast
import subprocess
import sys
from pathlib import Path

import covop

SRC = Path(covop.__file__).resolve().parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"

# (module, name): bound on purpose though the module never reads it.
KEPT = set()


def unused_imports(path):
    """Names bound by the module's top-level imports that no Name node of the
    module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_module_level_import():
    found = {(path.stem, name) for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(path)}
    assert found == KEPT


def test_importing_the_package_loads_no_submodule_and_no_numpy(covop_env):
    # the package re-exports nothing: each name is imported from the module
    # that defines it, so ``import covop`` alone costs no numpy
    code = ("import sys, covop\n"
            "print(covop.__version__)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('covop.') or m.split('.')[0] == 'numpy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=covop_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{covop.__version__}\n[]\n"


def test_a_seeded_verify_run_loads_no_numpy_random_and_no_hashlib(covop_env):
    # the suites draw from covop.verify.Stream over Python's random(); the
    # first numpy Generator would import numpy.random, and with it secrets,
    # hashlib and OpenSSL, several MB of peak RSS
    code = ("import contextlib, io, sys\n"
            "from covop import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['verify', '--suite', 'all', '--seed', '0'])\n"
            "print(code, sorted({'numpy.random', 'secrets', 'hashlib'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=covop_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"


def test_the_cli_and_its_commands_load_no_numpy(covop_env):
    # covop computes with the standard library alone: the quadrature nodes
    # are math tuples summed by math.fsum, and the Knapp-Stein transform of a
    # Gaussian is a Kummer series, so no numpy import reaches any command
    code = ("import contextlib, io, sys\n"
            "import covop.cli\n"
            "seen = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
            "for argv in (['verify', '--suite', 'all', '--seed', '0'],\n"
            "             ['coeffs', '--n', '3', '--N', '2'],\n"
            "             ['operator', '--n', '2', '--N', '2']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = covop.cli.main(argv)\n"
            "    seen += [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
            "    print(argv[0], code)\n"
            "print(sorted(set(seen)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=covop_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "verify 0\ncoeffs 0\noperator 0\n[]\n"


def test_the_cli_loads_no_dataclasses_and_no_inspect(covop_env):
    # dataclasses imports inspect, and inspect ast, dis and tokenize: about a
    # sixth of the import of covop.cli, for a report class that needs none
    code = ("import sys, covop.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=covop_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_jets_import_only_the_standard_library(covop_env):
    # jets hold Python floats and complex values, so no jet operation goes
    # through numpy's SIMD dispatch and a seed's report bits cannot depend on
    # the CPU (ROADMAP item 19); vectorized jets would reopen that
    tree = ast.parse((SRC / "jets.py").read_text(encoding="utf-8"))
    modules = [a.name for node in tree.body if isinstance(node, ast.Import)
               for a in node.names]
    modules += [node.module for node in tree.body
                if isinstance(node, ast.ImportFrom) and not node.level]
    assert modules and all(m.split(".")[0] in sys.stdlib_module_names for m in modules)
    assert not any(isinstance(node, ast.ImportFrom) and node.level for node in tree.body)
    code = "import sys, covop.jets\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=covop_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# (module, name): defined on purpose though no code names it; cli.main looks
# its subcommand handlers up by name.
KEPT_DEFINITIONS = {("cli", "cmd_coeffs"), ("cli", "cmd_operator"), ("cli", "cmd_verify")}


def _names(node):
    """Every name a Name or an Attribute node under ``node`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_dead_module_level_definition():
    # a name counts when code in src/covop or a demo reads it outside the
    # definition itself (a recursive call does not count); an import alone
    # does not count, and neither does a test
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    paths = [*sorted(SRC.glob("*.py")), *demos]
    nodes = [(path, node) for path in paths
             for node in ast.parse(path.read_text(encoding="utf-8")).body]
    names = [_names(node) for _, node in nodes]
    dead = set()
    for k, (path, node) in enumerate(nodes):
        if path.parent == SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not any(node.name in seen for j, seen in enumerate(names) if j != k):
                dead.add((path.stem, node.name))
    assert dead == KEPT_DEFINITIONS
