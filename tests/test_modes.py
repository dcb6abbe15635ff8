"""Every certificate's mode decision, pinned in one table.

A certificate runs exhaustively when it can and otherwise falls back to its
structural or sampled mode.  Each row of the table is one situation: a finite
algebra within the budget, a finite algebra over it, and an infinite algebra.
Each column is a --mode request the subcommand accepts (None: no --mode),
plus one it does not and the empty one, which no subcommand accepts; a
subcommand without modes refuses --mode itself.  A
cell is the lines the report prints about its mode, or the one `error:` line
the command prints when it refuses, with exit 2.
"""
import pytest

from quasicode import HammingCode, resolve_preset
from quasicode.cli import main
from quasicode.errors import UnsupportedError

SITUATIONS = ("finite", "over-budget", "infinite")

# the command line of each situation, without --mode
ROWS = {
    "verify-perfect": (
        "--algebra f3 --m 2",
        "--algebra f3 --m 2 --budget 80",  # 3^4 = 81 vectors; the structural check needs 3^2 - 1
        "--algebra rationals --m 2 --trials 3",
    ),
    "reconstruct-check": (
        "--algebra f2 --m 2 --trials 3",
        "--algebra f2 --m 2 --trials 3 --budget 63",  # (2^2)^3 = 64 cases
        "--algebra rationals --m 2 --trials 3",
    ),
    "audit": (
        "--algebra f3 --trials 3",
        "--algebra f3 --trials 3 --budget 26",  # 3^3 = 27 cases
        "--algebra rationals --trials 3",
    ),
    "distinguish": (
        "--algebra f3 --m 2 --m2 3",
        "--algebra f3 --m 2 --m2 3 --budget 3",  # C(4, 3) = 4 column sets
        "--algebra rationals --m 2 --m2 3 --samples 2",
    ),
    "right-linearity": (
        "--algebra f3 --m 2",
        "--algebra f3 --m 2 --budget 3",  # 4 columns
        "--algebra rationals --m 2 --trials 3",
    ),
}

EXHAUSTIVE, STRUCTURAL = ("mode: exhaustive",), ("mode: structural",)
SAMPLED_RUN = ("mode: sampled", "trials: 3", "seed: 0")
SAMPLED_AUDIT = ("mode: sampled (trials 3, seed 0)",)


def _refused(text):
    return f"error: {text}"


def _fell_back(shown):
    return ("mode: structural", f"notice: exhaustive enumeration infeasible ({shown}); fell back to structural mode")


# command -> request -> the cells of the three situations
TABLE = {
    "verify-perfect": {
        None: (EXHAUSTIVE, STRUCTURAL, STRUCTURAL + ("trials: 3",)),
        "auto": (EXHAUSTIVE, STRUCTURAL, STRUCTURAL + ("trials: 3",)),
        "exhaustive": (EXHAUSTIVE, _fell_back("81 vectors > budget 80"), _fell_back("infinite algebra")),
        "structural": (STRUCTURAL, STRUCTURAL, STRUCTURAL + ("trials: 3",)),
        "sampled": (_refused("unknown verify mode 'sampled'"),) * 3,
        "": (_refused("unknown verify mode ''"),) * 3,
    },
    "reconstruct-check": {
        None: (EXHAUSTIVE, SAMPLED_RUN, SAMPLED_RUN),
        "auto": (EXHAUSTIVE, SAMPLED_RUN, SAMPLED_RUN),
        "exhaustive": (
            EXHAUSTIVE,
            _refused("exhaustive axiom check needs 64 cases, over the budget of 63"),
            _refused("rationals: exhaustive axiom check needs a finite algebra"),
        ),
        "sampled": (SAMPLED_RUN,) * 3,
        "structural": (_refused("unknown axiom-check mode 'structural'"),) * 3,
        "": (_refused("unknown axiom-check mode ''"),) * 3,
    },
    "audit": {
        None: (EXHAUSTIVE, _refused("exhaustive audit needs 27 cases, over the budget of 26"), SAMPLED_AUDIT),
        "exhaustive": (
            EXHAUSTIVE,
            _refused("exhaustive audit needs 27 cases, over the budget of 26"),
            _refused("rationals: exhaustive audit needs a finite algebra"),
        ),
        "sampled": (SAMPLED_AUDIT,) * 3,
        "auto": (_refused("unknown audit mode 'auto'; expected exhaustive or sampled"),) * 3,
        "": (_refused("unknown audit mode ''; expected exhaustive or sampled"),) * 3,
    },
    # distinguish and right-linearity take no --mode: the algebra and the budget decide
    "distinguish": {
        None: (
            EXHAUSTIVE,
            _refused("distinguishing checks C(4, 3) = 4 column sets, over the budget of 3"),
            ("mode: sampled", "samples: 2", "seed: 0"),
        ),
        "sampled": (_refused("distinguish does not take --mode"),) * 3,
        "": (_refused("distinguish does not take --mode"),) * 3,
    },
    "right-linearity": {
        None: (EXHAUSTIVE, _refused("code has 4 columns, over the budget of 3"), SAMPLED_RUN),
        "sampled": (_refused("right-linearity does not take --mode"),) * 3,
        "": (_refused("right-linearity does not take --mode"),) * 3,
    },
}

CELLS = [
    pytest.param(command, request, ROWS[command][i], cell, id=f"{command}-{request}-{SITUATIONS[i]}")
    for command, requests in TABLE.items()
    for request, cells in requests.items()
    for i, cell in enumerate(cells)
]


@pytest.mark.parametrize("command,request_,argv,cell", CELLS)
def test_mode_decision(capsys, command, request_, argv, cell):
    mode = [] if request_ is None else ["--mode", request_]
    code = main([command, *argv.split(), *mode])
    captured = capsys.readouterr()
    if isinstance(cell, str):  # a refusal: one line on stderr, exit 2
        assert (code, captured.out, captured.err.splitlines()) == (2, "", [cell])
    else:
        assert code == 0 and captured.err == ""
        lines = captured.out.splitlines()
        assert [line for line in cell if line not in lines] == []


@pytest.mark.parametrize("name,budget,count", [("f3", 10**6, 8), ("rationals", 10**6, 3)])
def test_weight3_batch_takes_the_generators_over_a_finite_algebra(name, budget, count):
    # the weight-3 codewords a certificate maps: every generator, or trials seeded draws
    assert len(HammingCode(resolve_preset(name), 2).weight3_batch(3, 0, budget)) == count


def test_weight3_batch_refuses_an_over_budget_code():
    with pytest.raises(UnsupportedError, match=r"^code has 4 columns, over the budget of 3$"):
        HammingCode(resolve_preset("f3"), 2).weight3_batch(3, 0, 3)
