"""Tests for alphabet, scoring, FASTA, and mutation models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.alphabet import (
    ALPHABET_SIZE,
    AMINO_ACIDS,
    decode,
    encode,
    random_sequence,
)
from repro.sequence.fasta import iter_fasta, read_fasta, write_fasta
from repro.sequence.mutate import diverge, indel, substitute
from repro.sequence.scoring import BLOSUM62

protein_strings = st.text(alphabet=AMINO_ACIDS, min_size=0, max_size=60)


class TestAlphabet:
    @given(protein_strings)
    @settings(max_examples=100)
    def test_encode_decode_round_trip(self, s):
        assert decode(encode(s)) == s

    def test_lowercase_accepted(self):
        assert decode(encode("acdy")) == "ACDY"

    def test_unknown_maps_to_x(self):
        assert decode(encode("A*B")) == "AXX"

    def test_random_sequence(self, rng):
        seq = random_sequence(100, rng)
        assert seq.size == 100
        assert seq.max() < len(AMINO_ACIDS)

    def test_random_sequence_frequencies(self, rng):
        freqs = np.zeros(len(AMINO_ACIDS))
        freqs[0] = 1.0
        seq = random_sequence(50, rng, frequencies=freqs)
        assert np.all(seq == 0)

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            random_sequence(-1, rng)
        with pytest.raises(ValueError):
            random_sequence(5, rng, frequencies=np.ones(3))


class TestBlosum62:
    def test_shape_and_symmetry(self):
        assert BLOSUM62.shape == (ALPHABET_SIZE, ALPHABET_SIZE)
        assert np.array_equal(BLOSUM62, BLOSUM62.T)

    def test_known_values(self):
        aa = {ch: i for i, ch in enumerate(AMINO_ACIDS)}
        assert BLOSUM62[aa["W"], aa["W"]] == 11
        assert BLOSUM62[aa["A"], aa["A"]] == 4
        assert BLOSUM62[aa["W"], aa["P"]] == -4
        assert BLOSUM62[aa["I"], aa["L"]] == 2

    def test_diagonal_positive(self):
        diag = np.diag(BLOSUM62)[:len(AMINO_ACIDS)]
        assert np.all(diag > 0)

    def test_x_scores_negative(self):
        assert np.all(BLOSUM62[-1] == -1)

    def test_read_only(self):
        with pytest.raises(ValueError):
            BLOSUM62[0, 0] = 99


class TestFasta:
    def test_round_trip(self, tmp_path):
        records = [("seq1 desc", "ACDEFGHIKLMNPQRSTVWY" * 5), ("seq2", "WYV")]
        path = tmp_path / "t.fasta"
        write_fasta(records, path, width=30)
        assert read_fasta(path) == records

    def test_wrapping(self, tmp_path):
        path = tmp_path / "t.fasta"
        write_fasta([("s", "A" * 100)], path, width=10)
        lines = path.read_text().splitlines()
        assert len(lines) == 11
        assert all(len(l) <= 10 for l in lines[1:])

    def test_iter_matches_read(self, tmp_path):
        records = [("a", "ACD"), ("b", "WYV")]
        path = tmp_path / "t.fasta"
        write_fasta(records, path)
        assert list(iter_fasta(path)) == read_fasta(path) == records

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "bad.fasta"
        path.write_text("ACDEF\n")
        with pytest.raises(ValueError):
            read_fasta(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.fasta"
        path.write_text(">s\n\nACD\n\nEFG\n")
        assert read_fasta(path) == [("s", "ACDEFG")]

    @pytest.mark.parametrize("text,line,what", [
        (">a\nACD\n>b\n>c\nWYV\n", 3, "no sequence"),
        (">a\nACD\n>b x\n", 3, "no sequence"),
        (">a one\nACD\n>b\nWY\n>a two\nV\n", 5, "duplicate"),
    ])
    def test_malformed_records_name_the_line(self, tmp_path, text, line, what):
        path = tmp_path / "bad.fasta"
        path.write_text(text)
        for reader in (read_fasta, lambda p: list(iter_fasta(p))):
            with pytest.raises(ValueError, match=f"line {line}: .*{what}"):
                reader(path)

    def test_residue_policy_accepts(self, tmp_path):
        path = tmp_path / "t.fasta"
        # Any letter passes (B/Z/J/U/O/X encode as X); one trailing '*'
        # per record is dropped, on its last line.
        path.write_text(">a\nacdBZ\nJUOX*\n>b\nWYV*\n>c\nK\n")
        records = read_fasta(path)
        assert records == [("a", "ACDBZJUOX"), ("b", "WYV"), ("c", "K")]
        assert decode(encode(records[0][1])) == "ACDXXXXXX"

    @pytest.mark.parametrize("text,line,what", [
        (">a\nAC1D\n", 2, "invalid residue '1'"),
        (">a\nACD\n>b\nWY-V\n", 4, "invalid residue '-'"),
        (">a\nAC.D\n", 2, "invalid residue '.'"),
        (">a\nAC D\n", 2, "invalid residue ' '"),
        (">a\nACD**\n", 2, "invalid residue '\\*'"),
        (">a\nAC*\nDE\n", 2, "'\\*' before the end"),
        (">a\n*\n", 1, "no sequence"),
    ])
    def test_residue_policy_rejects(self, tmp_path, text, line, what):
        path = tmp_path / "bad.fasta"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"line {line}: .*{what}"):
            read_fasta(path)

    def test_invalid_width(self, tmp_path):
        with pytest.raises(ValueError):
            write_fasta([("s", "A")], tmp_path / "x.fasta", width=0)


class TestMutate:
    def test_substitute_rate_zero(self, rng):
        seq = random_sequence(100, rng)
        assert np.array_equal(substitute(seq, 0.0, rng), seq)

    def test_substitute_rate_one_changes_everything(self, rng):
        seq = random_sequence(200, rng)
        mutated = substitute(seq, 1.0, rng)
        assert np.all(mutated != seq)
        assert mutated.max() < len(AMINO_ACIDS)

    def test_substitute_rate_statistics(self):
        rng = np.random.default_rng(0)
        seq = random_sequence(5000, rng)
        mutated = substitute(seq, 0.2, rng)
        frac = np.mean(mutated != seq)
        assert 0.15 < frac < 0.25

    def test_substitute_does_not_mutate_input(self, rng):
        seq = random_sequence(50, rng)
        before = seq.copy()
        substitute(seq, 0.5, rng)
        assert np.array_equal(seq, before)

    def test_indel_changes_length(self):
        rng = np.random.default_rng(1)
        seq = random_sequence(200, rng)
        out = indel(seq, 0.1, rng)
        assert out.size != 200 or not np.array_equal(out, seq)

    def test_indel_rate_zero(self, rng):
        seq = random_sequence(30, rng)
        assert np.array_equal(indel(seq, 0.0, rng), seq)

    def test_invalid_rates(self, rng):
        seq = random_sequence(10, rng)
        with pytest.raises(ValueError):
            substitute(seq, 1.5, rng)
        with pytest.raises(ValueError):
            indel(seq, -0.1, rng)
        with pytest.raises(ValueError):
            indel(seq, 0.1, rng, max_len=0)

    def test_diverge_composes(self):
        rng = np.random.default_rng(2)
        seq = random_sequence(150, rng)
        out = diverge(seq, 0.1, 0.02, rng)
        assert out.dtype == np.uint8
        assert out.max() < len(AMINO_ACIDS)
