"""Exact-arithmetic perfect codes over fields, skew fields, and quasifields.

What loads when: `import quasicode` executes errors, finvec, hamming and the
algebra package's eager part (base and specfile), which every command-line
subcommand uses.  codewords (the codeword half of hamming), equivalence,
reconstruct and linalg are registered in sys.modules and on this package
unexecuted (importlib LazyLoader modules), as the algebra package registers
tables, fields, audit, hypercomplex and structure, and execute on their first
attribute read, so a child process that runs, say, `quasicode columns
--algebra f3` never compiles codewords, fields, equivalence, audit or linalg,
and one over the quaternions none of tables, fields, audit or linalg.  They
stay registered so that anything which finds quasicode's modules through
sys.modules, such as a tracer that wraps every layer, still finds all of
them.  Every name in __all__ is served from its home module on first use
(PEP 562); see _lazy.
"""

from . import algebra
from ._lazy import lazy_exports

__version__ = "0.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "algebra": tuple(name for name in algebra.__all__ if name != "same_algebra"),
        "codewords": ("PerfectnessReport",),
        "equivalence": (
            "BasisChange",
            "ChoiceFunction",
            "ConjugateCodeReport",
            "DistinguishReport",
            "LinearIsometry",
            "NonassocWitnessReport",
            "RightLinearityReport",
            "apply_isometry",
            "basis_change_isomorphism",
            "choice_contains",
            "choice_isomorphism",
            "choice_syndrome",
            "conjugate_code_check",
            "conjugate_image",
            "distinguish_invariant",
            "enumerate_choice_codewords",
            "nonassoc_witness",
            "right_linearity_witness",
            "support_witness",
        ),
        "errors": (
            "DomainError",
            "InconsistencyError",
            "InvalidIsometryError",
            "InvalidParameterError",
            "QuasicodeError",
            "SpecFormatError",
            "UnsupportedError",
        ),
        "finvec": ("Column", "DenseVec", "FinVec", "hamming_distance", "hamming_norm", "vec_add"),
        "hamming": ("HammingCode",),
        "reconstruct": (
            "ModuleAxiomReport",
            "PairElement",
            "enumerate_pairs",
            "membership_by_reduction",
            "module_axiom_check",
            "pair_add",
            "pair_scalar_mul",
            "random_pair",
        ),
    },
    lazy=("codewords", "equivalence", "linalg", "reconstruct"),
)

from . import errors, finvec, hamming  # noqa: E402
