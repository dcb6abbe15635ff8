"""The package's lazy layers: public names, what a child process executes, and parity with main.

quasicode registers codewords, equivalence, reconstruct and linalg, and
quasicode.algebra registers tables, fields, audit, hypercomplex and structure,
unexecuted, and both serve their public names on first use.  The other CLI
tests run main in a process that has long since executed every layer, so a
fault only the lazy path shows (a name left unbound, a module forced too
early) is looked for here, in fresh interpreters.
"""
import ast
import contextlib
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quasicode
import quasicode.algebra
from quasicode.cli import _COMMANDS, main
from test_cli import z5_spec_file

SRC = str(Path(quasicode.__file__).resolve().parents[1])

# The layer modules a tracer of the package reads from sys.modules after `import quasicode.cli`,
# each with one public function its namespace must hold once read.
LAYER_FUNCTIONS = {
    "quasicode.algebra.base": "solve_left",
    "quasicode.algebra.fields": "make_isotope",
    "quasicode.algebra.hypercomplex": "conjugate",
    "quasicode.algebra.tables": "is_prime",
    "quasicode.algebra.audit": "axiom_audit",
    "quasicode.algebra.structure": "subfield_structure",
    "quasicode.algebra.specfile": "resolve_preset",
    "quasicode.finvec": "hamming_distance",
    "quasicode.hamming": "decode_weight2",
    "quasicode.codewords": "verify_perfect",
    "quasicode.reconstruct": "module_axiom_check",
    "quasicode.equivalence": "support_witness",
    "quasicode.linalg": "nullspace_vector",
    "quasicode.cli": "main",
}

# the lazy layers: the finite backend with the prime fields, the Galois fields with Cayley tables and isotopes,
# the codeword half of hamming, and the modules only an infinite algebra or a certificate reads
PRIME = ["quasicode.algebra.tables"]
GALOIS = ["quasicode.algebra.fields"]
CODEWORDS = ["quasicode.codewords"]
INFINITE = ["quasicode.algebra.hypercomplex"]
CERTIFICATES = ["quasicode.algebra.audit", "quasicode.algebra.structure", "quasicode.equivalence",
                "quasicode.linalg", "quasicode.reconstruct"]
LAZY = PRIME + GALOIS + CODEWORDS + INFINITE + CERTIFICATES
F3 = ["--algebra", "f3", "--m", "2"]
USAGE_ERROR = ["verify-perfect", "--algebra", "f3"]  # exits 2: the command needs --m
NO_AUDIT = ["quasicode.algebra.audit", "quasicode.reconstruct"]  # what a linearized certificate leaves unexecuted

# (argv, the lazy layers a fresh child leaves unexecuted after main(argv)); no argv only imports the CLI
EXECUTES = [
    ([], LAZY),
    (["verify-perfect", "--algebra", "quaternions", "--m", "2", "--trials", "10"], PRIME + GALOIS + CERTIFICATES),
    (["audit", "--algebra", "f3"], GALOIS + CODEWORDS + INFINITE + CERTIFICATES[1:]),
    (["columns", *F3], GALOIS + CODEWORDS + INFINITE + CERTIFICATES),
    (["syndrome", *F3, "--in", "@WORD"], GALOIS + CODEWORDS + INFINITE + CERTIFICATES),
    (["decode", *F3, "--in", "@WORD"], GALOIS + CODEWORDS + INFINITE + CERTIFICATES),
    (["generators", "--algebra", "f2", "--m", "3"], GALOIS + INFINITE + CERTIFICATES),
    (["reconstruct-check", *F3], GALOIS + CODEWORDS + INFINITE + CERTIFICATES[1:-1]),
    (["membership-reduce", *F3, "--in", "@WORD"], GALOIS + CODEWORDS + INFINITE + CERTIFICATES[:-1]),
    (["choice-iso", *F3, "--e2", "(0,1)=2"],
     GALOIS + INFINITE + ["quasicode.algebra.structure", "quasicode.linalg", "quasicode.reconstruct"]),
    (["support-witness", *F3, "--columns-file", "@COLUMNS"], GALOIS + CODEWORDS + INFINITE + NO_AUDIT),
    (["distinguish", "--algebra", "f2", "--m", "2", "--m2", "3"], GALOIS + CODEWORDS + INFINITE + NO_AUDIT),
    (["distinguish", "--algebra", "quaternions", "--m", "2", "--m2", "3"], PRIME + GALOIS + CODEWORDS + NO_AUDIT),
    (["nonassoc-witness", "--algebra", "gf9-isotope", "--m", "2"],
     CODEWORDS + INFINITE + ["quasicode.algebra.structure", "quasicode.linalg", "quasicode.reconstruct"]),
    (USAGE_ERROR, GALOIS + CODEWORDS + INFINITE + CERTIFICATES),
]


def _python(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("package", [quasicode, quasicode.algebra], ids=lambda p: p.__name__)
def test_public_names_resolve_to_their_home_objects(package):
    star = {}
    exec(f"from {package.__name__} import *", star)
    listed = dir(package)
    for name in package.__all__:
        value = getattr(package, name)
        home = value.__module__
        assert home.startswith(package.__name__ + "."), name
        assert getattr(sys.modules[home], name) is value, name
        assert star[name] is value, name
        assert name in listed, name
    assert set(star) - {"__builtins__"} == set(package.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


@pytest.mark.parametrize("argv,unexecuted", EXECUTES, ids=[argv[0] if argv else "import" for argv, _ in EXECUTES])
def test_a_child_executes_only_the_layers_its_subcommand_reads(tmp_path, argv, unexecuted):
    files = {"@WORD": tmp_path / "word.txt", "@COLUMNS": tmp_path / "columns.txt"}
    files["@WORD"].write_text("(1,0) := 1\n(0,1) := 1\n(1,1) := 2\n")
    files["@COLUMNS"].write_text("(1,0)\n(1,1)\n(1,2)\n")
    argv = [str(files.get(arg, arg)) for arg in argv]
    code = f"""
import sys, types
layers = {LAYER_FUNCTIONS!r}

def unexecuted():
    # type() reads no attribute, so it leaves a lazy module unexecuted
    return sorted(name for name in layers if type(sys.modules[name]) is not types.ModuleType)

import quasicode.cli
assert all(name in sys.modules for name in layers), [n for n in layers if n not in sys.modules]
if {argv!r}:
    assert quasicode.cli.main({argv!r}) == {2 if argv == USAGE_ERROR else 0}
assert "_hashlib" not in sys.modules  # the digest on each report's identity line loads no OpenSSL
assert unexecuted() == {sorted(unexecuted)!r}, unexecuted()
assert ("fractions" in sys.modules) == ("quasicode.algebra.hypercomplex" not in {unexecuted!r})
"""
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr


def test_the_cli_registers_every_module_the_bench_tracer_wraps():
    # bench/spans.py's Tracer.install reads each module its LAYERS names from sys.modules after
    # `import quasicode.cli`; a module missing there would fail a traced run with a KeyError
    spans = Path(SRC).parent / "bench" / "spans.py"
    layers = next(ast.literal_eval(node.value) for node in ast.parse(spans.read_text()).body
                  if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"])
    modules = sorted(name for names in layers.values() for name in names)
    assert set(modules) <= set(LAYER_FUNCTIONS)
    run = _python("-c", f"import sys, quasicode.cli; assert not [m for m in {modules!r} if m not in sys.modules]")
    assert run.returncode == 0, run.stderr


def test_reading_a_lazy_layer_executes_it():
    code = f"""
import sys, types
import quasicode.cli
for name, function in {LAYER_FUNCTIONS!r}.items():
    namespace = vars(sys.modules[name])
    assert isinstance(namespace[function], types.FunctionType) and namespace[function].__module__ == name
    assert type(sys.modules[name]) is types.ModuleType, name
assert quasicode.support_witness is quasicode.equivalence.support_witness
assert quasicode.LawCheck is quasicode.algebra.base.LawCheck
"""
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr


def _lazy_exports(package: str) -> tuple[set, dict]:
    """The lazy modules a package's lazy_exports call registers, and the home module of each public name."""
    path = Path(SRC, *package.split("."), "__init__.py")
    call = next(n for n in ast.walk(ast.parse(path.read_text()))
                if isinstance(n, ast.Call) and getattr(n.func, "id", "") == "lazy_exports")
    lazy = ast.literal_eval(next(k.value for k in call.keywords if k.arg == "lazy"))
    # an entry may be derived from a module the package imports, as quasicode's "algebra" names are
    homes = eval(ast.unparse(call.args[1]), vars(importlib.import_module(package)))
    return ({f"{package}.{m}" for m in lazy},
            {f"{package}.{name}": f"{package}.{home}" for home, names in homes.items() for name in names})


# fields' classes subclass tables' index-table backend, so executing fields needs tables executed
NEEDS = {("quasicode.algebra.fields", "quasicode.algebra.tables")}


def test_no_module_imports_a_name_from_a_lazy_module():
    # `from .audit import X`, or `from .algebra import X` of a name whose home is audit, executes
    # audit wherever the importing module executes; `from . import audit` binds it unexecuted
    lazy, home = set(), {}
    for package in ("quasicode", "quasicode.algebra"):
        modules, homes = _lazy_exports(package)
        lazy |= modules
        home.update(homes)

    def executed(source: str, name: str) -> str:
        """The first lazy module `from source import name` executes, or the eager home it reads."""
        while source not in lazy and f"{source}.{name}" in home:
            source = home[f"{source}.{name}"]
        return source

    found = []
    for path in sorted(Path(SRC, "quasicode").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                runs = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                source = node.module
                if node.level:
                    source = ".".join([*parts[:len(parts) - node.level], *filter(None, [node.module])])
                runs = [executed(source, alias.name) for alias in node.names
                        if f"{source}.{alias.name}" not in lazy]  # a lazy module itself is bound unexecuted
            else:
                continue
            found += [f"{module}:{node.lineno} executes {r}" for r in runs if r in lazy and (module, r) not in NEEDS]
    assert found == []


def _parity_cases(tmp: Path) -> list[list[str]]:
    """One command line per subcommand, over small inputs, with each exit code among them."""
    word = tmp / "word.txt"
    word.write_text("(1,0) := 1\n(0,1) := 1\n(1,1) := 2\n")
    zero_div = tmp / "zero-div.txt"
    zero_div.write_text("(1,0) := 1/0i\n")
    cols = tmp / "cols.txt"
    cols.write_text("(1,0)\n(1,1)\n(1,2)\n")
    f3 = ["--algebra", "f3", "--m", "2"]
    quaternions = ["--algebra", "quaternions", "--m", "2"]
    return [
        ["audit", "--algebra", "gf9-isotope"],
        ["columns", *f3],
        ["syndrome", *f3, "--in", str(word)],
        ["decode", *quaternions, "--in", str(zero_div)],
        ["verify-perfect", "--algebra", z5_spec_file(tmp), "--m", "2", "--mode", "exhaustive", "--pivots", "1,1"],
        ["generators", "--algebra", "f2", "--m", "3"],
        ["reconstruct-check", *f3],
        ["membership-reduce", *f3, "--in", str(word)],
        ["choice-iso", *f3, "--e2", "(0,1)=2"],
        ["basis-iso", *f3, "--ops", "shear:0,1,1"],
        ["support-witness", *f3, "--columns-file", str(cols)],
        ["distinguish", "--algebra", "f2", "--m", "2", "--m2", "3"],
        ["nonassoc-witness", "--algebra", "gf9-isotope", "--m", "2"],
        ["right-linearity", *quaternions, "--trials", "20"],
        ["conjugate-check", *quaternions, "--samples", "20"],
    ]


def test_every_subcommand_prints_the_same_in_a_fresh_child(tmp_path):
    cases = _parity_cases(tmp_path)
    assert sorted(argv[0] for argv in cases) == sorted(_COMMANDS)
    seen_codes = set()
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        child = _python("-m", "quasicode.cli", *argv)
        assert (child.returncode, child.stdout, child.stderr) == (status, out.getvalue(), err.getvalue()), argv
        seen_codes.add(status)
    assert seen_codes == {0, 1, 2}
