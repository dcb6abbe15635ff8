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

from ..errors import SpecFormatError
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


def _gf9_isotope() -> tables.CayleyTableAlgebra:
    base = _gf_preset(9)
    return tables.make_isotope(base, base.parse("t"), label="gf9-isotope")


# every algebra class is read through its lazy module when an algebra is built, so that only a
# caller of the hypercomplex presets executes hypercomplex (and the fractions module it
# imports), and only a finite one the fields and tables
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
        m = re.fullmatch(r"f(\d+)", key)
        if m:
            q = int(m.group(1))
            if fields.is_prime(q):
                alg = fields.PrimeField(q)
            elif q in _GF_MODULI:
                alg = _gf_preset(q)
    if alg is not None:
        _PRESET_CACHE[key] = alg
    return alg


def algebra_from_dict(data: dict) -> Algebra:
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecFormatError("algebra spec must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "prime-field":
            return fields.PrimeField(int(data["p"]))
        if kind == "galois-field":
            return fields.GaloisField(int(data["p"]), [int(c) for c in data["poly"]])
        if kind in ("rationals", "quaternions", "octonions"):
            return _NAMED_PRESETS[kind]()
        if kind == "cayley-table":
            return tables.CayleyTableAlgebra(
                [[int(v) for v in row] for row in data["add"]],
                [[int(v) for v in row] for row in data["mul"]],
                label=data.get("label", "cayley"),
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
            v = data.get("V")
            return tables.make_isotope(base, a, v, label=data.get("label"))
    except KeyError as exc:
        raise SpecFormatError(f"algebra spec kind {kind!r} is missing field {exc}") from None
    raise SpecFormatError(f"unknown algebra kind {kind!r}")


def parse_algebra_spec(path: str) -> Algebra:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read algebra spec {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path} is not valid JSON: {exc}") from None
    return algebra_from_dict(data)


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
