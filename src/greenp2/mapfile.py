"""Versioned JSON map files: explicit monomial entries, strict validation."""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError
from .maps import ProjMap
from .polys import HomogPoly3, monomial_exponents

SCHEMA_VERSION = 1

_TOP_FIELDS = {"schema", "degree", "components", "metadata"}


def map_to_dict(f: ProjMap, metadata: dict | None = None) -> dict:
    comps = []
    for p in f.components:
        entries = []
        for (i, j, k), c in zip(monomial_exponents(p.degree), p.coeffs):
            if c != 0:
                entries.append([int(i), int(j), int(k), float(c.real), float(c.imag)])
        comps.append(entries)
    return {
        "schema": SCHEMA_VERSION,
        "degree": int(f.degree),
        "components": comps,
        "metadata": metadata or {},
    }


def dump_map_json(f: ProjMap, metadata: dict | None = None) -> str:
    return json.dumps(map_to_dict(f, metadata), sort_keys=True, indent=2) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def map_from_dict(obj) -> ProjMap:
    if not isinstance(obj, dict):
        raise ParseError("map file must be a JSON object")
    unknown = set(obj) - _TOP_FIELDS
    if unknown:
        raise ParseError(f"unknown map-file fields: {sorted(unknown)}")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema {obj.get('schema')!r}; expected {SCHEMA_VERSION}")
    try:
        degree = obj["degree"]
        raw_comps = obj["components"]
    except KeyError as exc:
        raise ParseError(f"missing required field {exc.args[0]!r}") from exc
    if not _is_int(degree):
        raise ParseError(f"degree must be an integer, not {degree!r}")
    if not isinstance(obj.get("metadata", {}), dict):
        raise ParseError("metadata must be a JSON object")
    if not isinstance(raw_comps, list) or len(raw_comps) != 3 or not all(isinstance(c, list) for c in raw_comps):
        raise ParseError("components must be a list of exactly three monomial lists")
    comps = []
    for ci, entries in enumerate(raw_comps):
        poly = HomogPoly3(degree)
        for mi, entry in enumerate(entries):
            where = f"component {ci}, monomial {mi}"
            if not isinstance(entry, list) or len(entry) != 5:
                raise ParseError(f"{where}: expected [i, j, k, re, im]")
            i, j, k, re, im = entry
            if not (_is_int(i) and _is_int(j) and _is_int(k)):
                raise ParseError(f"{where}: exponents {[i, j, k]!r} are not all integers")
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ParseError(f"{where}: exponents ({i},{j},{k}) do not sum to degree {degree}")
            if not (_is_real(re) and _is_real(im)):
                raise ParseError(f"{where}: coefficient {[re, im]!r} is not two numbers")
            if not (np.isfinite(re) and np.isfinite(im)):
                raise ParseError(f"{where}: non-finite coefficient")
            poly = poly + HomogPoly3.from_monomials(degree, [(i, j, k, complex(re, im))])
        comps.append(poly)
    return ProjMap.validate(tuple(comps))


def read_map(source) -> ProjMap:
    """Parse a map file from a path, a file object, or a JSON string."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fp:
            text = fp.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in map file: {exc}") from exc
    return map_from_dict(obj)
