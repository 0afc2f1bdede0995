"""Amino-acid alphabet and integer encoding.

Sequences are stored as small integer arrays (uint8) indexing into the
20-letter amino-acid alphabet, which is what the vectorized aligner and the
substitution matrix want.  ``X`` (unknown residue) is a 21st symbol that
scores neutrally-negative against everything.
"""

from __future__ import annotations

import numpy as np

#: The 20 standard amino acids, in the conventional BLOSUM row order.
AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"

#: Unknown residue.
UNKNOWN = "X"

ALPHABET = AMINO_ACIDS + UNKNOWN
ALPHABET_SIZE = len(ALPHABET)

#: Code of :data:`UNKNOWN`.
UNKNOWN_CODE = ALPHABET.index(UNKNOWN)

_CHAR_TO_CODE = {ch: i for i, ch in enumerate(ALPHABET)}
# Build a 256-entry lookup for fast bytes -> code translation.
_LOOKUP = np.full(256, _CHAR_TO_CODE[UNKNOWN], dtype=np.uint8)
for _ch, _code in _CHAR_TO_CODE.items():
    _LOOKUP[ord(_ch)] = _code
    _LOOKUP[ord(_ch.lower())] = _code


def encode(sequence: str) -> np.ndarray:
    """Encode an amino-acid string as a uint8 code array.

    Unrecognized characters map to ``X`` (unknown).
    """
    raw = np.frombuffer(sequence.encode("ascii", errors="replace"), dtype=np.uint8)
    return _LOOKUP[raw]


def decode(codes: np.ndarray) -> str:
    """Decode a uint8 code array back to an amino-acid string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() >= ALPHABET_SIZE:
        raise ValueError(f"code out of range: max {codes.max()}")
    return "".join(ALPHABET[c] for c in codes.tolist())


def random_sequence(length: int, rng: np.random.Generator,
                    frequencies: np.ndarray | None = None) -> np.ndarray:
    """A random protein sequence of ``length`` residues (codes).

    Uses uniform residue frequencies unless given a 20-vector of
    probabilities.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if frequencies is None:
        return rng.integers(0, len(AMINO_ACIDS), size=length).astype(np.uint8)
    frequencies = np.asarray(frequencies, dtype=np.float64)
    if frequencies.shape != (len(AMINO_ACIDS),):
        raise ValueError("frequencies must have one entry per amino acid")
    return rng.choice(len(AMINO_ACIDS), size=length, p=frequencies).astype(np.uint8)
