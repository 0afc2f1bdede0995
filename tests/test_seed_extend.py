"""Seed-and-extend edge test: seed diagonals, the banded lower bound, and
the two-stage homology graph build.

The contract: with ``keep_scores=False`` a banded Smith-Waterman around
each pair's seed diagonal accepts edges without full alignment, and only
the pairs it cannot decide are fully aligned.  The band score is a lower
bound on the full score, so the graph must equal the full-alignment graph
on every backend, gap model and pair filter, whatever the diagonals are.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.obs import observe, use_obs
from repro.sequence import homology
from repro.sequence.generator import SequenceFamilyConfig, generate_protein_families
from repro.sequence.homology import (
    BAND_HALF_WIDTH,
    HomologyConfig,
    build_homology_graph,
)
from repro.sequence.kmer_filter import candidate_pairs, kmer_codes
from repro.sequence.pairs import dedupe_count_pairs
from repro.sequence.smith_waterman import (
    banded_lower_bounds,
    batch_self_scores,
    batch_smith_waterman,
    orient_pair_lengths,
    sw_score_affine,
    sw_score_banded,
    sw_score_linear,
)
from repro.sequence.suffix import GeneralizedSuffixArray, candidate_pairs_suffix

codes = st.lists(st.integers(0, 20), max_size=40).map(
    lambda xs: np.array(xs, dtype=np.uint8))


@pytest.fixture(scope="module")
def family_set():
    return generate_protein_families(
        SequenceFamilyConfig(n_families=4, family_size_median=8.0),
        seed=2).sequences


def lower_median(values):
    values = sorted(values)
    return values[(len(values) - 1) // 2]


def band_score(a, b, diagonal, half_width, gap=8):
    scores, _ = banded_lower_bounds([a, b], np.array([[0, 1]]),
                                    np.array([diagonal]), half_width, gap=gap)
    return int(scores[0])


class TestBandKernel:
    @given(codes, codes, st.integers(-50, 50), st.integers(0, 8),
           st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_equals_scalar_band_and_bounds_linear(self, a, b, diagonal,
                                                  half_width, gap):
        got = band_score(a, b, diagonal, half_width, gap)
        assert got == sw_score_banded(a, b, half_width, gap=gap,
                                      diagonal=diagonal)
        assert got <= sw_score_linear(a, b, gap=gap)

    @given(codes, codes, st.integers(-50, 50), st.integers(0, 8),
           st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_linear_penalty_bounds_affine(self, a, b, diagonal, half_width,
                                          gap_open, gap_extend):
        got = band_score(a, b, diagonal, half_width,
                         gap=max(gap_open, gap_extend))
        assert got <= sw_score_affine(a, b, gap_open=gap_open,
                                      gap_extend=gap_extend)

    @given(codes, codes, st.integers(0, 12), st.data())
    @settings(max_examples=100, deadline=None)
    def test_band_covering_rectangle_is_full_score(self, a, b, gap, data):
        diagonal = data.draw(st.integers(-len(b), len(a)))
        # Every cell has |i - j - diagonal| <= len(a) + len(b).
        half_width = len(a) + len(b)
        assert (band_score(a, b, diagonal, half_width, gap)
                == sw_score_linear(a, b, gap=gap))

    @pytest.mark.parametrize("max_pairs", [1, 3, 64])
    def test_bins_and_orientation(self, family_set, monkeypatch, max_pairs):
        from repro.sequence import smith_waterman

        monkeypatch.setattr(smith_waterman, "BAND_MAX_PAIRS", max_pairs)
        pairs, diagonals = candidate_pairs(family_set, k=4,
                                           return_diagonals=True)
        # Each pair in both orientations: swapping negates the diagonal.
        both = np.concatenate([pairs, pairs[:, ::-1]])
        diags = np.concatenate([diagonals, -diagonals])
        got, cells = banded_lower_bounds(family_set, both, diags, 3)
        want = [sw_score_banded(family_set[a], family_set[b], 3,
                                diagonal=int(d))
                for (a, b), d in zip(both, diags)]
        assert got.tolist() == want
        assert cells >= 7 * sum(min(family_set[a].size, family_set[b].size)
                                for a, b in both)

    @pytest.mark.parametrize("budget", [1, 500])
    def test_block_budget_splits_bins(self, family_set, monkeypatch, budget):
        from repro.sequence import smith_waterman

        pairs, diagonals = candidate_pairs(family_set, k=4,
                                           return_diagonals=True)
        want, _ = banded_lower_bounds(family_set, pairs, diagonals, 3)
        monkeypatch.setattr(smith_waterman, "_BAND_BLOCK_CELLS", budget)
        got, _ = banded_lower_bounds(family_set, pairs, diagonals, 3)
        assert np.array_equal(got, want)

    def test_wide_dtype_bins(self):
        # 11 * 1500 + 8 * 3001 exceeds the int16 span: the bin runs int32.
        rng = np.random.default_rng(4)
        a = rng.integers(0, 20, size=1500).astype(np.uint8)
        b = np.concatenate([rng.integers(0, 20, size=700), a,
                            rng.integers(0, 20, size=800)]).astype(np.uint8)
        assert band_score(a, b, -700, 2) == sw_score_banded(
            a, b, 2, diagonal=-700)
        assert band_score(a, b, -700, 2) == sw_score_linear(a, a)

    def test_empty_and_validation(self, family_set):
        scores, cells = banded_lower_bounds(family_set,
                                            np.empty((0, 2), np.int64),
                                            np.empty(0, np.int64), 4)
        assert scores.size == 0 and cells == 0
        pair, diag = np.array([[0, 1]]), np.array([0])
        for kwargs in ({"half_width": -1}, {"half_width": 2, "gap": -1}):
            with pytest.raises(ValueError):
                banded_lower_bounds(family_set, pair, diag, **kwargs)


def kmer_reference(sequences, k, min_shared, max_occurrence):
    """Per-pair lower-median diagonal over shared k-mer types, by loops."""
    first = []
    for seq in sequences:
        positions = {}
        for pos, code in enumerate(kmer_codes(seq, k).tolist()):
            positions.setdefault(code, pos)
        first.append(positions)
    occurrence = Counter(code for positions in first for code in positions)
    out = {}
    for a in range(len(sequences)):
        for b in range(a + 1, len(sequences)):
            offsets = [first[a][c] - first[b][c] for c in first[a]
                       if c in first[b] and occurrence[c] <= max_occurrence]
            if len(offsets) >= min_shared:
                out[(a, b)] = lower_median(offsets)
    return out


def suffix_reference(sequences, min_match_len, max_run):
    """Per-pair lower-median diagonal over shared LCP runs, by loops."""
    gsa = GeneralizedSuffixArray(sequences)
    sa, lcp, owner = gsa.sa.tolist(), gsa.lcp.tolist(), gsa.owner.tolist()
    offsets = gsa.offsets.tolist()
    runs, rank = [], 1
    while rank < len(sa):
        if lcp[rank] >= min_match_len:
            lo = rank - 1
            while rank < len(sa) and lcp[rank] >= min_match_len:
                rank += 1
            runs.append(range(lo, rank))
        else:
            rank += 1
    found: dict = {}
    for run in runs:
        seed = {}
        for r in run:           # lowest-ranked suffix of each owner
            seed.setdefault(owner[sa[r]], sa[r] - offsets[owner[sa[r]]])
        if not 2 <= len(seed) <= max_run:
            continue
        members = sorted(seed)
        for x, a in enumerate(members):
            for b in members[x + 1:]:
                found.setdefault((a, b), []).append(seed[a] - seed[b])
    return {pair: lower_median(d) for pair, d in found.items()}


class TestSeedDiagonals:
    @pytest.mark.parametrize("k,min_shared,max_occurrence",
                             [(3, 1, 200), (4, 2, 200), (3, 2, 4)])
    def test_kmer_diagonals_are_median_offsets(self, family_set, k,
                                               min_shared, max_occurrence):
        pairs, diagonals = candidate_pairs(
            family_set, k=k, min_shared=min_shared,
            max_kmer_occurrence=max_occurrence, return_diagonals=True)
        assert np.array_equal(pairs, candidate_pairs(
            family_set, k=k, min_shared=min_shared,
            max_kmer_occurrence=max_occurrence))
        want = kmer_reference(family_set, k, min_shared, max_occurrence)
        assert dict(zip(map(tuple, pairs.tolist()),
                        diagonals.tolist())) == want

    @pytest.mark.parametrize("min_match_len,max_run", [(4, 200), (6, 200),
                                                       (4, 5)])
    def test_suffix_diagonals_are_median_offsets(self, family_set,
                                                 min_match_len, max_run):
        pairs, diagonals = candidate_pairs_suffix(
            family_set, min_match_len=min_match_len, max_run=max_run,
            return_diagonals=True)
        assert np.array_equal(pairs, candidate_pairs_suffix(
            family_set, min_match_len=min_match_len, max_run=max_run))
        want = suffix_reference(family_set, min_match_len, max_run)
        assert dict(zip(map(tuple, pairs.tolist()),
                        diagonals.tolist())) == want

    def test_wide_keys_fall_back_to_lexsort(self, monkeypatch):
        # Ids near n = 2**31 with diagonals spanning ~80k: n * n * span
        # overflows the packed (key, diagonal) sort, so the reduction takes
        # the two-key lexsort; it must agree with the packed path at a
        # small n and with a per-pair reference.
        rng = np.random.default_rng(5)
        small = rng.integers(0, 12, size=(600, 2))
        small = np.sort(small[small[:, 0] != small[:, 1]], axis=1)
        diagonals = rng.integers(-40_000, 40_000, size=small.shape[0])
        n, shift = 1 << 31, (1 << 31) - 12
        lexsorts = []
        real_lexsort = np.lexsort

        def counting_lexsort(keys):
            lexsorts.append(len(keys))
            return real_lexsort(keys)

        monkeypatch.setattr(np, "lexsort", counting_lexsort)
        got, medians = dedupe_count_pairs(small + shift, n, min_count=9,
                                          diagonals=diagonals)
        want, want_medians = dedupe_count_pairs(small, 12, min_count=9,
                                                diagonals=diagonals)
        assert lexsorts == [2]       # the wide call only
        assert 0 < got.shape[0] < 66
        assert np.array_equal(got - shift, want)
        assert np.array_equal(medians, want_medians)
        found = {}
        for (a, b), d in zip(small.tolist(), diagonals.tolist()):
            found.setdefault((a + shift, b + shift), []).append(d)
        reference = {pair: lower_median(d) for pair, d in found.items()
                     if len(d) >= 9}
        assert dict(zip(map(tuple, got.tolist()), medians.tolist())) \
            == reference

    def test_empty_inputs(self):
        for found in (candidate_pairs([], return_diagonals=True),
                      candidate_pairs_suffix([], return_diagonals=True)):
            pairs, diagonals = found
            assert pairs.shape == (0, 2) and diagonals.size == 0


def build_traced(sequences, config, keep_scores):
    ctx = observe()
    with use_obs(ctx):
        result = build_homology_graph(sequences, config,
                                      keep_scores=keep_scores)
    return result, ctx


def assert_same_graph(a, b):
    assert np.array_equal(a.graph.indptr, b.graph.indptr)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert a.n_edges == b.n_edges
    assert a.n_candidate_pairs == b.n_candidate_pairs


#: Thresholds at which the band accepts every pair, some of the edges, and
#: nothing on the family set (asserted below, not assumed).
THRESHOLDS = {"all": 0.02, "some": 0.6, "none": 0.9}

BACKENDS = {
    "host": {"align_backend": "host"},
    "pool": {"align_backend": "pool", "n_jobs": 2, "chunk_size": 8},
    "device": {"align_backend": "device"},
    "device2": {"align_backend": "device", "devices": 2},
}


class TestTwoStageEdges:
    @pytest.mark.parametrize("accepts", sorted(THRESHOLDS))
    @pytest.mark.parametrize("pair_filter", ["kmer", "suffix"])
    @pytest.mark.parametrize("gap_model", ["linear", "affine"])
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_edges_equal_full_alignment(self, family_set, backend,
                                        gap_model, pair_filter, accepts):
        config = HomologyConfig(pair_filter=pair_filter, gap_model=gap_model,
                                min_match_len=6,
                                min_normalized_score=THRESHOLDS[accepts],
                                **BACKENDS[backend])
        ref = build_homology_graph(
            family_set, dataclasses.replace(config, align_backend="host",
                                            n_jobs=1, devices=1))
        got, ctx = build_traced(family_set, config, keep_scores=False)
        assert_same_graph(got, ref)
        assert got.normalized_scores.size == 0
        assert got.pairs.shape == (0, 2)
        accepted = ctx.metrics.snapshot()["counters"][
            "homology.band_pairs_accepted"]
        if accepts == "all":
            assert accepted == got.n_candidate_pairs
            assert got.align_backend is None
        elif accepts == "some":
            assert 0 < accepted < got.n_edges
            assert got.align_backend == config.align_backend
        else:
            assert accepted == 0

    @pytest.mark.parametrize("pair_filter", ["kmer", "suffix"])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_diagonals_same_edges(self, family_set, pair_filter,
                                         seed):
        rng = np.random.default_rng(seed)

        def scrambled(find):
            def wrapper(*args, **kwargs):
                pairs, diagonals = find(*args, **kwargs)
                return pairs, rng.integers(-300, 300, size=diagonals.size)
            return wrapper

        from repro.sequence import suffix

        config = HomologyConfig(pair_filter=pair_filter, min_match_len=6,
                                min_normalized_score=0.5)
        ref = build_homology_graph(family_set, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(homology, "candidate_pairs",
                          scrambled(candidate_pairs))
            patch.setattr(suffix, "candidate_pairs_suffix",
                          scrambled(candidate_pairs_suffix))
            got = build_homology_graph(family_set, config, keep_scores=False)
        assert_same_graph(got, ref)

    @pytest.mark.parametrize("gap_model", ["linear", "affine"])
    def test_keep_scores_output_unchanged(self, family_set, gap_model):
        config = HomologyConfig(gap_model=gap_model, align_backend="host")
        got, ctx = build_traced(family_set, config, keep_scores=True)
        pairs = candidate_pairs(family_set, k=config.k,
                                min_shared=config.min_shared_kmers)
        if gap_model == "linear":
            scores = batch_smith_waterman(
                [family_set[a] for a in pairs[:, 0]],
                [family_set[b] for b in pairs[:, 1]], gap=config.gap)
        else:
            scores = np.array([sw_score_affine(family_set[a], family_set[b])
                               for a, b in pairs])
        selfs = batch_self_scores(family_set)
        denom = np.minimum(selfs[pairs[:, 0]], selfs[pairs[:, 1]])
        normalized = scores / np.maximum(denom, 1)
        graph = CSRGraph.from_edges(
            pairs[normalized >= config.min_normalized_score],
            n_vertices=len(family_set))
        assert np.array_equal(got.pairs, pairs)
        assert np.array_equal(got.normalized_scores, normalized)
        assert np.array_equal(got.graph.indptr, graph.indptr)
        assert np.array_equal(got.graph.indices, graph.indices)
        assert not [r for r in ctx.tracer.records if r.name == "homology.band"]
        assert got.timings.band_s == 0.0

    def test_stage_two_sees_only_undecided_pairs(self, family_set,
                                                 monkeypatch):
        config = HomologyConfig(min_normalized_score=0.6,
                                align_backend="host")
        pairs, diagonals = candidate_pairs(family_set, k=config.k,
                                           min_shared=config.min_shared_kmers,
                                           return_diagonals=True)
        band, _ = banded_lower_bounds(family_set, pairs, diagonals,
                                      BAND_HALF_WIDTH, gap=config.gap)
        selfs = batch_self_scores(family_set)
        denom = np.minimum(selfs[pairs[:, 0]], selfs[pairs[:, 1]])
        rest = pairs[band / np.maximum(denom, 1) < 0.6]
        lengths = np.array([s.size for s in family_set])
        short, long_ = orient_pair_lengths(rest, lengths)
        rest_cells = int((short * long_).sum())

        seen = []
        choose = homology.choose_align_backend
        observe_rate = homology.observe_alignment_throughput
        monkeypatch.setattr(
            homology, "choose_align_backend",
            lambda backend, n, cells, *a, **kw: (
                seen.append(("choose", n, cells))
                or choose(backend, n, cells, *a, **kw)))
        monkeypatch.setattr(
            homology, "observe_alignment_throughput",
            lambda backend, cells, s: (seen.append(("observe", cells))
                                       or observe_rate(backend, cells, s)))
        got, ctx = build_traced(family_set, config, keep_scores=False)
        assert seen == [("choose", len(rest), rest_cells),
                        ("observe", rest_cells)]
        spans = {r.name: r for r in ctx.tracer.records}
        assert spans["homology.alignment"].attrs["n_pairs"] == len(rest)

    def test_band_observability(self, family_set):
        got, ctx = build_traced(family_set, HomologyConfig(), keep_scores=False)
        spans = [r for r in ctx.tracer.records if r.name == "homology.band"]
        assert len(spans) == 1
        counters = ctx.metrics.snapshot()["counters"]
        assert spans[0].attrs["half_width"] == BAND_HALF_WIDTH
        assert (spans[0].attrs["n_accepted"]
                == counters["homology.band_pairs_accepted"] > 0)
        assert spans[0].attrs["cells"] == counters["homology.band_cells"] > 0
        timings = got.timings.as_dict()
        assert timings["band_s"] == pytest.approx(spans[0].duration)
        assert timings["total_s"] == pytest.approx(
            sum(v for k, v in timings.items() if k != "total_s"))

    def test_run_end_to_end_keeps_no_scores(self):
        from repro.pipeline.end_to_end import run_end_to_end

        ps = generate_protein_families(
            SequenceFamilyConfig(n_families=4, family_size_median=8.0),
            seed=2)
        report = run_end_to_end(protein_set=ps, seed=3)
        assert report.homology.normalized_scores.size == 0
        assert report.homology.pairs.shape == (0, 2)
        assert_same_graph(report.homology,
                          build_homology_graph(ps.sequences))
