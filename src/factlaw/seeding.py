"""Deterministic seed derivation.

Every random decision in the library is driven by an explicit integer seed.
Sub-streams (one per repetition, per module, per replica) get their own seeds
derived from a root seed and a counter, so that results do not depend on the
order in which sub-streams are consumed and parallel fan-out stays honest.
"""

from __future__ import annotations

import hashlib

from .serialize import read_int


def derive_seed(root: int, index: int | str) -> int:
    """Derive an independent child seed from ``root`` and a counter or tag.

    The derivation hashes ``"{root}:{index}"`` with SHA-256 and keeps the
    first 8 bytes, so child streams are stable across platforms and Python
    versions (unlike ``random.Random(tuple)`` hashing).  ``root`` is read by
    :func:`~factlaw.serialize.read_int`, so ``None``, ``2.5``, ``True`` and
    ``"abc"`` raise ``ValueError`` rather than hash their text.
    """
    root = read_int(root, "seed")
    digest = hashlib.sha256(f"{root}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")
