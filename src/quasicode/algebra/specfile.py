"""Algebra presets and the JSON algebra spec file format.

A spec file is a JSON object with a "kind" field:

  {"kind": "prime-field", "p": 5}
  {"kind": "galois-field", "p": 3, "poly": [1, 0, 1]}          # low degree first, monic
  {"kind": "rationals"} / {"kind": "quaternions"} / {"kind": "octonions"}
  {"kind": "cayley-table", "add": [[...]], "mul": [[...]]}     # row-major index tables
  {"kind": "isotope", "base": {...} | "gf9", "a": "t", "V": [[...]]}  # V optional
"""
from __future__ import annotations

import json
import re

from ..errors import SpecFormatError, read_text
from . import fields, hypercomplex, tables
from .base import Algebra

_GF_MODULI = {
    4: (2, [1, 1, 1]),
    8: (2, [1, 1, 0, 1]),
    9: (3, [1, 0, 1]),
    25: (5, [1, 1, 1]),
}


def _gf_preset(q: int) -> fields.GaloisField:
    p, poly = _GF_MODULI[q]
    return fields.GaloisField(p, poly, label=f"gf{q}")


def _gf9_isotope() -> fields.CayleyTableAlgebra:
    base = _gf_preset(9)
    return fields.make_isotope(base, base.parse("t"), label="gf9-isotope")


# every algebra class is read through its lazy module when an algebra is built, so that only a
# caller of the hypercomplex presets executes hypercomplex (and the fractions module it
# imports), only a finite one tables, and only a Galois field, Cayley table or isotope fields
_NAMED_PRESETS = {
    "rationals": lambda: hypercomplex.RationalField(),
    "quaternions": lambda: hypercomplex.QuaternionAlgebra(),
    "octonions": lambda: hypercomplex.OctonionAlgebra(),
    "gf4": lambda: _gf_preset(4),
    "gf8": lambda: _gf_preset(8),
    "gf9": lambda: _gf_preset(9),
    "gf25": lambda: _gf_preset(25),
    "gf9-isotope": _gf9_isotope,
}

_PRESET_CACHE: dict[str, Algebra] = {}


def resolve_preset(name: str) -> Algebra | None:
    key = name.strip().lower()
    if key in _PRESET_CACHE:
        return _PRESET_CACHE[key]
    alg: Algebra | None = None
    if key in _NAMED_PRESETS:
        alg = _NAMED_PRESETS[key]()
    else:
        m = re.fullmatch(r"f(\d{1,4300})", key)  # int() reads at most 4,300 digits
        if m:
            q = int(m.group(1))
            if tables.is_prime(q):
                alg = tables.PrimeField(q)
            elif q in _GF_MODULI:
                alg = _gf_preset(q)
    if alg is not None:
        _PRESET_CACHE[key] = alg
    return alg


def _integers(value, field: str, depth: int = 0):
    """value when it is a JSON integer, or at depth d a list of values of depth d - 1; else SpecFormatError
    naming field.  A bool, float or string is no integer."""
    if type(value) is not (list if depth else int):
        wanted = "a list" if depth else "an integer"
        raise SpecFormatError(f"algebra spec field {field!r}: expected {wanted}, got {type(value).__name__}")
    return [_integers(v, field, depth - 1) for v in value] if depth else value


def _label(data: dict, default):
    """data's "label", or default when it is absent or null; else a non-empty string of one line."""
    label = data.get("label")
    if label is not None and (type(label) is not str or label.splitlines() != [label]):
        got = repr(label) if isinstance(label, str) else type(label).__name__
        raise SpecFormatError(f"algebra spec field 'label': expected a non-empty string on one line, got {got}")
    return default if label is None else label


def algebra_from_dict(data: dict) -> Algebra:
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecFormatError("algebra spec must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "prime-field":
            return tables.PrimeField(_integers(data["p"], "p"))
        if kind == "galois-field":
            return fields.GaloisField(_integers(data["p"], "p"), _integers(data["poly"], "poly", 1))
        if kind in ("rationals", "quaternions", "octonions"):
            return _NAMED_PRESETS[kind]()
        if kind == "cayley-table":
            return fields.CayleyTableAlgebra(
                _integers(data["add"], "add", 2),
                _integers(data["mul"], "mul", 2),
                label=_label(data, "cayley"),
            )
        if kind == "isotope":
            base_spec = data["base"]
            if isinstance(base_spec, str):
                base = resolve_preset(base_spec)
                if base is None:
                    raise SpecFormatError(f"unknown base preset {base_spec!r} in isotope spec")
            else:
                base = algebra_from_dict(base_spec)
            if not isinstance(base, fields.GaloisField):
                raise SpecFormatError("isotope base must be a galois field")
            a = base.parse(str(data["a"]))
            v = None if data.get("V") is None else _integers(data["V"], "V", 2)
            return fields.make_isotope(base, a, v, label=_label(data, None))
    except KeyError as exc:
        raise SpecFormatError(f"algebra spec kind {kind!r} is missing field {exc}") from None
    raise SpecFormatError(f"unknown algebra kind {kind!r}")


def parse_algebra_spec(path: str) -> Algebra:
    try:
        # a deep nesting exhausts the stack in the JSON decoder, or in algebra_from_dict on isotope bases
        return algebra_from_dict(json.loads(read_text(path, "algebra spec")))
    except OSError as exc:
        raise SpecFormatError(f"cannot read algebra spec {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise SpecFormatError(f"{path} nests too deeply to read as an algebra spec") from None


def resolve_algebra(name_or_path: str) -> Algebra:
    """A preset name, or a path to a JSON spec file."""
    alg = resolve_preset(name_or_path)
    if alg is not None:
        return alg
    if name_or_path.endswith(".json") or "/" in name_or_path or "\\" in name_or_path:
        return parse_algebra_spec(name_or_path)
    raise SpecFormatError(
        f"unknown algebra {name_or_path!r}: not a preset and not a spec file path"
    )


def write_algebra_spec(alg: Algebra, path: str) -> None:
    data = dict(alg.spec_dict())
    data["label"] = alg.label
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
