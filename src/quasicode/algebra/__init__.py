"""Coefficient algebras: exact scalars, law audits, isotopes, subfield structure."""

from .base import Algebra, Scalar, add, mul, neg, same_algebra, solve_left, solve_right
from .fields import GaloisField, PrimeField
from .hypercomplex import OctonionAlgebra, QuaternionAlgebra, RationalField, conjugate
from .tables import CayleyTableAlgebra, make_isotope
from .audit import AxiomReport, LawCheck, axiom_audit, is_associative, is_commutative
from .structure import SubfieldStructure, expand_scalar, subfield_structure
from .specfile import (
    algebra_from_dict,
    parse_algebra_spec,
    resolve_algebra,
    resolve_preset,
    write_algebra_spec,
)

__all__ = [
    "Algebra",
    "Scalar",
    "add",
    "neg",
    "mul",
    "solve_left",
    "solve_right",
    "same_algebra",
    "PrimeField",
    "GaloisField",
    "RationalField",
    "QuaternionAlgebra",
    "OctonionAlgebra",
    "conjugate",
    "CayleyTableAlgebra",
    "make_isotope",
    "axiom_audit",
    "AxiomReport",
    "LawCheck",
    "is_associative",
    "is_commutative",
    "SubfieldStructure",
    "subfield_structure",
    "expand_scalar",
    "resolve_algebra",
    "resolve_preset",
    "parse_algebra_spec",
    "algebra_from_dict",
    "write_algebra_spec",
]
