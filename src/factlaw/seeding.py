"""Deterministic seed derivation.

Every random decision in the library is driven by an explicit integer seed.
Sub-streams (one per repetition, per module, per replica) get their own seeds
derived from a root seed and a counter, so that results do not depend on the
order in which sub-streams are consumed and parallel fan-out stays honest.
Streams that take one 32-bit word per draw read their words in chunks
(:func:`word_chunk`).
"""

from __future__ import annotations

import hashlib
import random
import struct

from .serialize import read_int

WORDS = 1024  # 32-bit words in a full chunk


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


def word_chunk(rng: random.Random, count: int = WORDS) -> tuple[int, ...]:
    """The next ``count`` 32-bit words of ``rng``, in the order that one
    ``getrandbits(32)`` call per word reads them: one
    ``getrandbits(32 * count)``, unpacked little-endian."""
    chunk = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return struct.unpack(f"<{count}I", chunk)
