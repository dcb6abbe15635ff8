"""The package's lazy layers: public names, what a child process executes, and parity with main.

quasicode registers equivalence, reconstruct, algebra.hypercomplex and
algebra.structure unexecuted and serves its public names on first use.  The
other CLI tests run main in a process that has long since executed every
layer, so a fault only the lazy path shows (a name left unbound, a module
forced too early) is looked for here, in fresh interpreters.
"""
import contextlib
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
    "quasicode.algebra.fields": "is_prime",
    "quasicode.algebra.hypercomplex": "conjugate",
    "quasicode.algebra.tables": "make_isotope",
    "quasicode.algebra.audit": "axiom_audit",
    "quasicode.algebra.structure": "subfield_structure",
    "quasicode.algebra.specfile": "resolve_preset",
    "quasicode.finvec": "hamming_distance",
    "quasicode.hamming": "third_entry",
    "quasicode.reconstruct": "module_axiom_check",
    "quasicode.equivalence": "support_witness",
    "quasicode.linalg": "nullspace_vector",
    "quasicode.cli": "main",
}
LAZY = ["quasicode.algebra.hypercomplex", "quasicode.algebra.structure",
        "quasicode.equivalence", "quasicode.reconstruct"]


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


def test_a_child_executes_only_the_layers_its_subcommand_reads():
    code = f"""
import sys, types
layers = {LAYER_FUNCTIONS!r}

def unexecuted():
    # type() reads no attribute, so it leaves a lazy module unexecuted
    return sorted(name for name in layers if type(sys.modules[name]) is not types.ModuleType)

import quasicode.cli
assert all(name in sys.modules for name in layers), [n for n in layers if n not in sys.modules]
assert unexecuted() == {sorted(LAZY)!r}, unexecuted()

quasicode.cli.main(["columns", "--algebra", "f3", "--m", "2"])
assert unexecuted() == {sorted(LAZY)!r}, unexecuted()
assert "fractions" not in sys.modules

quasicode.cli.main(["choice-iso", "--algebra", "f3", "--m", "2", "--e2", "(0,1)=2"])
assert unexecuted() == ["quasicode.algebra.hypercomplex", "quasicode.algebra.structure", "quasicode.reconstruct"]
assert "fractions" not in sys.modules

for name, function in layers.items():
    namespace = vars(sys.modules[name])
    assert isinstance(namespace[function], types.FunctionType) and namespace[function].__module__ == name
assert unexecuted() == []
assert quasicode.support_witness is quasicode.equivalence.support_witness
"""
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr


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
