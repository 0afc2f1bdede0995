"""Minimal FASTA reading and writing.

Metagenomic ORF sets travel as FASTA; the examples and the end-to-end
pipeline read and write this format.  Sequences are kept as plain strings at
this layer (encoding to code arrays happens at alignment time).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator


def read_fasta(path: str | Path) -> list[tuple[str, str]]:
    """Read a FASTA file into ``[(header, sequence), ...]``.

    Headers lose their leading ``>``; sequence lines are concatenated and
    uppercased.  Blank lines are ignored.  Malformed input raises
    ``ValueError`` naming the offending line (see :func:`iter_fasta`).

    Residue policy: any ASCII letter is accepted (letters outside the 20
    standard amino acids, such as the ambiguity codes B/Z/J/U/O, encode as
    ``X``; see :func:`repro.sequence.alphabet.encode`), one trailing ``*``
    (a stop codon) per record is dropped, and any other character is an
    error.
    """
    return list(iter_fasta(path))


def write_fasta(records: Iterable[tuple[str, str]], path: str | Path,
                width: int = 70) -> None:
    """Write ``(header, sequence)`` records as FASTA with wrapped lines."""
    if width < 1:
        raise ValueError("width must be >= 1")
    with Path(path).open("w") as fh:
        for header, seq in records:
            fh.write(f">{header}\n")
            for lo in range(0, len(seq), width):
                fh.write(seq[lo:lo + width] + "\n")


def iter_fasta(path: str | Path) -> Iterator[tuple[str, str]]:
    """Streaming variant of :func:`read_fasta` (one record at a time).

    Raises ``ValueError`` naming the line for sequence data before the
    first header, for a record with no sequence, for a record id (the
    header's first token) that an earlier record already used, for a
    character that is neither an ASCII letter nor the record's final
    ``*``, and for sequence data after that ``*``.
    """
    header: str | None = None
    header_line = 0
    star_line = 0
    chunks: list[str] = []
    seen: set[str] = set()
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if header is not None:
                    yield _record(path, header, header_line, chunks)
                header, header_line, chunks = line[1:].strip(), lineno, []
                star_line = 0
                record_id = header.split()[0] if header else ""
                if record_id in seen:
                    raise ValueError(f"{path} line {lineno}: duplicate FASTA "
                                     f"record id {record_id!r}")
                seen.add(record_id)
            else:
                if header is None:
                    raise ValueError(f"{path} line {lineno}: FASTA file must "
                                     "start with a '>' header")
                if star_line:
                    raise ValueError(f"{path} line {star_line}: '*' before "
                                     f"the end of FASTA record {header!r}")
                residues = line[:-1] if line.endswith("*") else line
                if residues and not (residues.isascii()
                                     and residues.isalpha()):
                    bad = next(ch for ch in residues
                               if not (ch.isascii() and ch.isalpha()))
                    raise ValueError(f"{path} line {lineno}: invalid residue "
                                     f"{bad!r} in FASTA record {header!r}")
                if len(residues) < len(line):
                    star_line = lineno
                chunks.append(residues)
        if header is not None:
            yield _record(path, header, header_line, chunks)


def _record(path, header: str, lineno: int,
            chunks: list[str]) -> tuple[str, str]:
    sequence = "".join(chunks)
    if not sequence:
        raise ValueError(f"{path} line {lineno}: FASTA record {header!r} "
                         "has no sequence")
    return header, sequence.upper()
