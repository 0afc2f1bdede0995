"""Tests for the scalar banded Smith-Waterman."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequence.alphabet import AMINO_ACIDS, encode, random_sequence
from repro.sequence.mutate import substitute
from repro.sequence.smith_waterman import sw_score_banded, sw_score_linear

seq_strategy = st.text(alphabet=AMINO_ACIDS, min_size=0, max_size=35)


class TestBandedScalar:
    @given(seq_strategy, seq_strategy)
    @settings(max_examples=80, deadline=None)
    def test_full_band_equals_unbanded(self, a, b):
        ea, eb = encode(a), encode(b)
        band = max(len(a), len(b))
        assert sw_score_banded(ea, eb, band) == sw_score_linear(ea, eb)

    @given(seq_strategy, seq_strategy,
           st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_band(self, a, b, band1, band2):
        ea, eb = encode(a), encode(b)
        lo, hi = sorted((band1, band2))
        assert sw_score_banded(ea, eb, lo) <= sw_score_banded(ea, eb, hi)

    def test_high_identity_pair_needs_tiny_band(self):
        rng = np.random.default_rng(0)
        a = random_sequence(150, rng)
        b = substitute(a, 0.05, rng)  # no indels: diagonal alignment
        assert sw_score_banded(a, b, 2) == sw_score_linear(a, b)

    def test_band_zero_is_diagonal_only(self):
        a = encode("ACDEFG")
        assert sw_score_banded(a, a, 0) == sw_score_linear(a, a)

    def test_validation(self):
        with pytest.raises(ValueError):
            sw_score_banded(encode("A"), encode("A"), -1)
        with pytest.raises(ValueError):
            sw_score_banded(encode("A"), encode("A"), 1, gap=-2)

    def test_empty(self):
        assert sw_score_banded(encode(""), encode("ACD"), 3) == 0
