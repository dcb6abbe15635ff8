"""Coefficient algebras: exact scalars, law audits, isotopes, subfield structure.

What loads when: importing this package executes base (the algebra
interface, Scalar, and the Report every certificate returns) and specfile.
tables (the finite algebras' index-table backend and the prime fields),
fields (Galois fields, Cayley tables and isotopes), audit (the law engine),
hypercomplex (the rationals, quaternions and octonions, and with them
fractions and decimal) and structure (subfield structure constants) are
registered in sys.modules and on this package unexecuted, and execute on
their first attribute read: specfile builds every algebra through its module
object, so a command over the quaternions compiles none of tables, fields or
audit, one over a prime field neither fields nor hypercomplex, and one over a
Galois field not hypercomplex.  fields reads audit, and the package's linalg,
only for a Cayley table or an isotope.  Every name in __all__ is served from
its home module on first use (PEP 562); see quasicode._lazy.
"""

from .._lazy import lazy_exports

# registered before the imports below, so that specfile binds the unexecuted lazy modules
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "base": ("Algebra", "Scalar", "LawCheck", "add", "neg", "mul", "solve_left", "solve_right", "same_algebra"),
        "tables": ("PrimeField",),
        "fields": ("GaloisField", "CayleyTableAlgebra", "make_isotope"),
        "hypercomplex": ("RationalField", "QuaternionAlgebra", "OctonionAlgebra", "conjugate"),
        "audit": ("axiom_audit", "AxiomReport", "is_associative", "is_commutative"),
        "structure": ("SubfieldStructure", "subfield_structure", "expand_scalar"),
        "specfile": (
            "resolve_algebra",
            "resolve_preset",
            "parse_algebra_spec",
            "algebra_from_dict",
            "write_algebra_spec",
        ),
    },
    lazy=("audit", "fields", "hypercomplex", "structure", "tables"),
)

from . import base, specfile  # noqa: E402
