"""Frozen text of every --help, with the terminal 80 columns wide.

main fills only the named subcommand's parser, so `quasicode --help` and each
`quasicode <command> --help` are pinned here byte for byte: the top-level
usage lists every subcommand, and each subcommand's usage and options are
exactly its own.
"""
import contextlib
import io

import pytest

from quasicode.cli import _COMMANDS, main

# argv before --help -> the text it prints
FROZEN = {
    (): """\
usage: quasicode [-h]
                 {audit,columns,syndrome,decode,verify-perfect,generators,reconstruct-check,membership-reduce,choice-iso,basis-iso,support-witness,distinguish,nonassoc-witness,right-linearity,conjugate-check}
                 ...

Perfect single-error-correcting codes over exact algebras

positional arguments:
  {audit,columns,syndrome,decode,verify-perfect,generators,reconstruct-check,membership-reduce,choice-iso,basis-iso,support-witness,distinguish,nonassoc-witness,right-linearity,conjugate-check}

options:
  -h, --help            show this help message and exit
""",
    ('audit',): """\
usage: quasicode audit [-h] --algebra ALGEBRA [--mode MODE] [--seed SEED]
                       [--budget BUDGET] [--trials TRIALS] [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --mode MODE        exhaustive / structural / sampled / auto
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --trials TRIALS
  --out OUT          write the report here instead of stdout
""",
    ('columns',): """\
usage: quasicode columns [-h] --algebra ALGEBRA [--m M] [--pivots PIVOTS]
                         [--seed SEED] [--budget BUDGET] [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --out OUT          write the report here instead of stdout
""",
    ('syndrome',): """\
usage: quasicode syndrome [-h] --algebra ALGEBRA [--m M] [--pivots PIVOTS]
                          [--seed SEED] [--budget BUDGET] [--in INFILE]
                          [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --in INFILE        input vector file
  --out OUT          write the report here instead of stdout
""",
    ('decode',): """\
usage: quasicode decode [-h] --algebra ALGEBRA [--m M] [--pivots PIVOTS]
                        [--seed SEED] [--budget BUDGET] [--in INFILE]
                        [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --in INFILE        input vector file
  --out OUT          write the report here instead of stdout
""",
    ('verify-perfect',): """\
usage: quasicode verify-perfect [-h] --algebra ALGEBRA [--m M]
                                [--pivots PIVOTS] [--mode MODE] [--seed SEED]
                                [--budget BUDGET] [--trials TRIALS]
                                [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --mode MODE        exhaustive / structural / sampled / auto
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --trials TRIALS
  --out OUT          write the report here instead of stdout
""",
    ('generators',): """\
usage: quasicode generators [-h] --algebra ALGEBRA [--m M] [--pivots PIVOTS]
                            [--seed SEED] [--budget BUDGET] [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --out OUT          write the report here instead of stdout
""",
    ('reconstruct-check',): """\
usage: quasicode reconstruct-check [-h] --algebra ALGEBRA [--m M]
                                   [--pivots PIVOTS] [--mode MODE]
                                   [--seed SEED] [--budget BUDGET]
                                   [--trials TRIALS] [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --mode MODE        exhaustive / structural / sampled / auto
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --trials TRIALS
  --out OUT          write the report here instead of stdout
""",
    ('membership-reduce',): """\
usage: quasicode membership-reduce [-h] --algebra ALGEBRA [--m M]
                                   [--pivots PIVOTS] [--seed SEED]
                                   [--budget BUDGET] [--in INFILE] [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --in INFILE        input vector file
  --out OUT          write the report here instead of stdout
""",
    ('choice-iso',): """\
usage: quasicode choice-iso [-h] --algebra ALGEBRA [--m M] [--pivots PIVOTS]
                            [--seed SEED] [--budget BUDGET] [--trials TRIALS]
                            [--out OUT] [--e1 E1] [--e2 E2]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --trials TRIALS
  --out OUT          write the report here instead of stdout
  --e1 E1            choice function, e.g. '(0,1)=2;(1,1)=2'
  --e2 E2            choice function, e.g. '(0,1)=2'
""",
    ('basis-iso',): """\
usage: quasicode basis-iso [-h] --algebra ALGEBRA [--m M] [--pivots PIVOTS]
                           [--seed SEED] [--budget BUDGET] [--trials TRIALS]
                           [--out OUT] [--ops OPS]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --trials TRIALS
  --out OUT          write the report here instead of stdout
  --ops OPS          basis operations, e.g. 'swap:0,1;scale:1,2;shear:0,1,1'
""",
    ('support-witness',): """\
usage: quasicode support-witness [-h] --algebra ALGEBRA [--m M]
                                 [--pivots PIVOTS] [--seed SEED]
                                 [--budget BUDGET] [--out OUT]
                                 [--columns-file COLUMNS_FILE]

options:
  -h, --help            show this help message and exit
  --algebra ALGEBRA     preset name or spec file path
  --m M                 number of check coordinates
  --pivots PIVOTS       comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET       most cases an enumeration may run
  --out OUT             write the report here instead of stdout
  --columns-file COLUMNS_FILE
                        file with one column per line
""",
    ('distinguish',): """\
usage: quasicode distinguish [-h] --algebra ALGEBRA [--m M] [--m2 M2]
                             [--pivots PIVOTS] [--seed SEED] [--budget BUDGET]
                             [--samples SAMPLES] [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --m2 M2            check coordinates of the larger code
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --samples SAMPLES
  --out OUT          write the report here instead of stdout
""",
    ('nonassoc-witness',): """\
usage: quasicode nonassoc-witness [-h] --algebra ALGEBRA [--m M]
                                  [--pivots PIVOTS] [--seed SEED]
                                  [--budget BUDGET] [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --out OUT          write the report here instead of stdout
""",
    ('right-linearity',): """\
usage: quasicode right-linearity [-h] --algebra ALGEBRA [--m M]
                                 [--pivots PIVOTS] [--seed SEED]
                                 [--budget BUDGET] [--trials TRIALS]
                                 [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --trials TRIALS
  --out OUT          write the report here instead of stdout
""",
    ('conjugate-check',): """\
usage: quasicode conjugate-check [-h] --algebra ALGEBRA [--m M]
                                 [--pivots PIVOTS] [--seed SEED]
                                 [--budget BUDGET] [--samples SAMPLES]
                                 [--out OUT]

options:
  -h, --help         show this help message and exit
  --algebra ALGEBRA  preset name or spec file path
  --m M              number of check coordinates
  --pivots PIVOTS    comma-separated pivot scalars, one per coordinate
  --seed SEED
  --budget BUDGET    most cases an enumeration may run
  --samples SAMPLES
  --out OUT          write the report here instead of stdout
""",
}


def test_every_subcommand_is_frozen():
    assert sorted(argv[0] for argv in FROZEN if argv) == sorted(_COMMANDS)


@pytest.mark.parametrize("argv", FROZEN, ids=lambda argv: argv[0] if argv else "quasicode")
def test_help_is_byte_identical(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert (exc.value.code, out.getvalue()) == (0, FROZEN[argv])
