"""Canonical JSON helpers and the exact-rational wire format.

Probabilities travel through files as strings ``"num/den"`` in lowest terms
(``"3/10"``, ``"1/1"``), never as floats, so that laws survive a round trip
bit-for-bit.  Canonical dumps sort object keys and use a fixed separator
style, which makes output digests reproducible.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any


def fraction_to_str(value: Fraction) -> str:
    """Render an exact probability as ``"num/den"`` in lowest terms."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def fraction_from_str(text: str) -> Fraction:
    """Parse the ``"num/den"`` wire form back into a :class:`Fraction`."""
    num, _, den = text.partition("/")
    if not den:
        raise ValueError(f"not a num/den rational: {text!r}")
    if int(den) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), int(den))


def canonical_dumps(doc: Any) -> str:
    """Serialize ``doc`` to canonical JSON (sorted keys, stable separators)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def dump_json(doc: Any, path) -> None:
    """Write ``doc`` as canonical JSON plus a trailing newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_dumps(doc))
        fh.write("\n")


def load_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_of_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_of_doc(doc: Any) -> str:
    return hashlib.sha256(canonical_dumps(doc).encode("ascii")).hexdigest()
