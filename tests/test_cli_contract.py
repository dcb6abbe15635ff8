"""The command-line contract over generated command lines.

Every subcommand with the options it takes, over presets and sizes up to
where enumeration stops fitting a small --budget, with well-formed and
malformed input files and with the report going to stdout, to a file, to a
directory or under a missing directory: the exit code is 0, 1 or 2, a usage
error prints exactly one `error:` line and nothing else, no exception escapes
main, and every run returns within a few seconds.  One case in four adds an
option the subcommand does not take, which it refuses; one in eight gives an
integer option a malformed value, and one in eight leaves out --algebra,
which argparse refuses in the same one line.
"""
import contextlib
import io
import random
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import hamming_oracle
from quasicode import HammingCode, resolve_preset
from quasicode.cli import _COMMANDS, _OPTIONS, _SHARED, main

PRESETS = ["f2", "f3", "gf4", "gf9", "gf25", "gf9-isotope", "rationals", "quaternions", "octonions"]
FILE_KINDS = ["good", "bad literal", "1/0", "wrong length", "non-canonical"]
OPS = ["swap:0,1", "scale:1,2", "shear:0,1,1", "swap:0,0", "twist:0"]
# where --out points, under the run's temporary directory; None leaves it out
OUTS = [None, "report.txt", ".", "missing/report.txt"]
INTEGER_OPTIONS = [flag for flag, keywords in _OPTIONS.items() if keywords.get("type") is int]
MALFORMED = ["x", "1.5", "", "0x10", "1e3"]


def _lines(kind: str, preset: str, m: int, rng: random.Random, vector: bool) -> list[str]:
    """Column lines (vector: with ' := value') for a code over preset with m coordinates."""
    code = HammingCode(resolve_preset(preset), m)
    alg = code.algebra
    lines = []
    for _ in range(rng.randint(1, 4)):
        col = str(hamming_oracle.random_column(code, rng, 3))
        lines.append(f"{col} := {hamming_oracle.random_scalar(alg, rng, True, 3)}" if vector else col)
    bad = {
        "bad literal": "(" + ",".join(["1"] + ["@@"] * (m - 1)) + ")",
        "1/0": "(" + ",".join(["1"] + ["1/0"] * (m - 1)) + ")",
        "wrong length": "(" + ",".join(["1"] * (m + 1)) + ")",
        "non-canonical": "(" + ",".join(["0"] * m) + ")",
    }.get(kind)
    if bad is not None:
        lines.insert(rng.randrange(len(lines) + 1), f"{bad} := 1" if vector else bad)
    return lines


@st.composite
def command_lines(draw):
    """A command line of the subcommand's own options (_COMMANDS), sometimes with one foreign option,
    a malformed integer or no --algebra; the error line that fault must give, or None; the input
    files, by flag; and where --out points."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[command][1]
    preset = draw(st.sampled_from(PRESETS))
    m = draw(st.sampled_from([2, 3, 4, 9]))
    values = {
        "--m": str(m),
        "--m2": str(draw(st.sampled_from([3, 4, 9]))),
        "--trials": str(draw(st.integers(1, 20))),
        "--samples": str(draw(st.integers(1, 20))),
        "--mode": draw(st.sampled_from([None, "auto", "exhaustive", "structural", "sampled"])),
        "--ops": draw(st.sampled_from(OPS)),
    }
    pairs = [["--algebra", preset], ["--budget", str(draw(st.integers(1, 10000)))]]
    pairs += [["--seed", str(draw(st.integers(0, 3)))]]
    pairs += [[flag, value] for flag, value in values.items() if flag in options and value is not None]
    refusal = None
    fault = draw(st.integers(0, 7))
    if fault < 2:  # one case in four, anywhere among the options, with a value
        foreign = draw(st.sampled_from([flag for flag in _OPTIONS if flag not in _SHARED + options]))
        pairs.insert(draw(st.integers(0, len(pairs))), [foreign, "1"])
        refusal = f"error: {command} does not take {foreign}"
    elif fault == 2:
        pair = draw(st.sampled_from([pair for pair in pairs if pair[0] in INTEGER_OPTIONS]))
        pair[1] = draw(st.sampled_from(MALFORMED))
        refusal = f"error: argument {pair[0]}: invalid int value: {pair[1]!r}"
    elif fault == 3:
        del pairs[0]
        refusal = "error: the following arguments are required: --algebra"
    files = {}
    for flag in ("--in", "--columns-file"):
        if flag in options:
            kind = draw(st.sampled_from(FILE_KINDS))
            rng = random.Random(draw(st.integers(0, 2**16)))
            files[flag] = _lines(kind, preset, m, rng, vector=flag == "--in")
    argv = [command, *(arg for pair in pairs for arg in pair)]
    return argv, refusal, files, draw(st.sampled_from(OUTS))


@settings(max_examples=500)
@given(command_lines())
def test_cli_contract(case):
    argv, refusal, files, out_path = case
    with tempfile.TemporaryDirectory() as tmp:
        for flag, lines in files.items():
            path = Path(tmp) / flag.strip("-")
            path.write_text("\n".join(lines) + "\n")
            argv = argv + [flag, str(path)]
        if out_path is not None:
            argv = argv + ["--out", str(Path(tmp) / out_path)]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), argv
    if out_path is not None:
        assert out.getvalue() == "", argv
    if code == 2:
        assert out.getvalue() == "", argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err.getvalue())
    if refusal is not None:
        assert (code, err.getvalue()) == (2, refusal + "\n"), argv
    assert elapsed < 5, (argv, elapsed)
