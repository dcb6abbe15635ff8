"""Coefficient algebras: exact scalars, law audits, isotopes, subfield structure.

What loads when: importing this package executes base, fields, tables,
audit and specfile, which every finite algebra uses.  hypercomplex (the
rationals, quaternions and octonions, and with them fractions and decimal)
and structure (subfield structure constants) are registered in sys.modules
and on this package unexecuted, and execute on their first attribute read:
specfile builds the hypercomplex presets through the module object, so only
a command over an infinite algebra compiles them.  Every name in __all__ is
served from its home module on first use (PEP 562); see quasicode._lazy.
"""

from .._lazy import lazy_exports

# registered before the imports below, so that specfile binds the unexecuted hypercomplex module
__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "base": ("Algebra", "Scalar", "add", "neg", "mul", "solve_left", "solve_right", "same_algebra"),
        "fields": ("PrimeField", "GaloisField"),
        "hypercomplex": ("RationalField", "QuaternionAlgebra", "OctonionAlgebra", "conjugate"),
        "tables": ("CayleyTableAlgebra", "make_isotope"),
        "audit": ("axiom_audit", "AxiomReport", "LawCheck", "is_associative", "is_commutative"),
        "structure": ("SubfieldStructure", "subfield_structure", "expand_scalar"),
        "specfile": (
            "resolve_algebra",
            "resolve_preset",
            "parse_algebra_spec",
            "algebra_from_dict",
            "write_algebra_spec",
        ),
    },
    lazy=("hypercomplex", "structure"),
)

from . import audit, base, fields, specfile, tables  # noqa: E402
