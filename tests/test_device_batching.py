"""Tests for the batch planner (Section III-C's split-list machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device.batching import Batch, max_batch_elements, plan_batches


def indptr_from_lengths(lengths):
    indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(lengths)
    return indptr


def reference_batches(indptr, max_elements):
    """The per-segment packing loop :func:`plan_batches` must reproduce."""
    batches = []
    cur_lo, cur_fill = 0, 0
    cur_bounds, cur_ids, cur_split = [0], [], []

    def flush():
        nonlocal cur_lo, cur_fill, cur_bounds, cur_ids, cur_split
        if cur_fill == 0 and not cur_ids:
            return
        batches.append(Batch(
            element_lo=cur_lo, element_hi=cur_lo + cur_fill,
            local_indptr=np.asarray(cur_bounds, dtype=np.int64),
            segment_ids=np.asarray(cur_ids, dtype=np.int64),
            is_split=np.asarray(cur_split, dtype=bool)))
        cur_lo += cur_fill
        cur_fill = 0
        cur_bounds, cur_ids, cur_split = [0], [], []

    for seg in range(indptr.size - 1):
        full = int(indptr[seg + 1] - indptr[seg])
        remaining = full
        while remaining > 0:
            space = max_elements - cur_fill
            if remaining <= space:
                take = remaining
            elif space >= max_elements // 2 or remaining > max_elements:
                take = space
            else:
                flush()
                continue
            if take == 0:
                flush()
                continue
            cur_fill += take
            cur_bounds.append(cur_fill)
            cur_ids.append(seg)
            cur_split.append(take < full)
            remaining -= take
            if cur_fill == max_elements:
                flush()
    flush()
    return batches


def assert_same_batches(got, want):
    assert len(got) == len(want)
    for have, ref in zip(got, want):
        assert (have.element_lo, have.element_hi) == (ref.element_lo,
                                                      ref.element_hi)
        for name in ("local_indptr", "segment_ids", "is_split"):
            a, b = getattr(have, name), getattr(ref, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


class TestPlanBatches:
    def test_single_batch_when_everything_fits(self):
        plan = plan_batches(indptr_from_lengths([3, 4, 2]), max_elements=100)
        assert plan.n_batches == 1
        batch = plan.batches[0]
        assert batch.n_elements == 9
        assert list(batch.segment_ids) == [0, 1, 2]
        assert not batch.is_split.any()
        assert plan.n_split_segments == 0

    def test_splits_oversized_segment(self):
        plan = plan_batches(indptr_from_lengths([25]), max_elements=10)
        assert plan.n_batches == 3
        assert plan.n_split_segments == 1
        assert all(b.is_split.all() for b in plan.batches)
        assert sum(b.n_elements for b in plan.batches) == 25

    def test_small_segment_starts_new_batch_instead_of_splitting(self):
        # 8 fits in a fresh batch of 10; with 7 already used (3 free) it
        # should NOT be split (3 < max/2) but moved to the next batch.
        plan = plan_batches(indptr_from_lengths([7, 8]), max_elements=10)
        assert plan.n_batches == 2
        assert plan.n_split_segments == 0

    def test_large_segment_fills_remaining_space(self):
        # 15 > max_elements, so it must split; first piece fills the batch.
        plan = plan_batches(indptr_from_lengths([4, 15]), max_elements=10)
        assert plan.n_split_segments == 1
        assert plan.batches[0].n_elements == 10

    def test_empty_segments_skipped(self):
        plan = plan_batches(indptr_from_lengths([0, 3, 0, 2, 0]), max_elements=10)
        ids = np.concatenate([b.segment_ids for b in plan.batches])
        assert list(ids) == [1, 3]

    def test_local_indptr_consistency(self):
        plan = plan_batches(indptr_from_lengths([5, 6, 7]), max_elements=9)
        for batch in plan.batches:
            lengths = np.diff(batch.local_indptr)
            assert lengths.sum() == batch.n_elements
            assert (lengths > 0).all()

    def test_slice_elements(self):
        flat = np.arange(12)
        plan = plan_batches(indptr_from_lengths([6, 6]), max_elements=6)
        assert np.array_equal(plan.batches[0].slice_elements(flat), np.arange(6))
        assert np.array_equal(plan.batches[1].slice_elements(flat), np.arange(6, 12))

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            plan_batches(indptr_from_lengths([1]), max_elements=0)

    def test_empty_graph(self):
        plan = plan_batches(indptr_from_lengths([]), max_elements=10)
        assert plan.n_batches == 0

    @given(st.lists(st.integers(0, 30), max_size=25),
           st.integers(1, 17))
    @settings(max_examples=150)
    def test_coverage_property(self, lengths, max_elements):
        """Every element covered exactly once, in order, within budget, and
        chunk lengths per source segment sum to the source length."""
        indptr = indptr_from_lengths(lengths)
        plan = plan_batches(indptr, max_elements)  # _validate_plan runs inside
        per_segment = {}
        for batch in plan.batches:
            chunk_lengths = np.diff(batch.local_indptr)
            for seg, ln, split in zip(batch.segment_ids, chunk_lengths,
                                      batch.is_split):
                per_segment.setdefault(int(seg), []).append((int(ln), bool(split)))
        for seg, ln in enumerate(lengths):
            if ln == 0:
                assert seg not in per_segment
                continue
            chunks = per_segment[seg]
            assert sum(c for c, _ in chunks) == ln
            if len(chunks) > 1:
                assert all(split for _, split in chunks)
            else:
                assert not chunks[0][1]


class TestMaxBatchElements:
    def test_scales_with_capacity(self):
        small = max_batch_elements(2**20, n_trials_chunk=16, s=2)
        big = max_batch_elements(2**24, n_trials_chunk=16, s=2)
        # Linear up to floor rounding.
        assert 16 * small <= big < 16 * (small + 1)

    def test_too_small_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_batch_elements(8, n_trials_chunk=16, s=2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=40), st.integers(0, 30))
def test_single_batch_fast_path_equals_loop(lengths, slack):
    """When everything fits, the plan is the per-segment loop's one batch."""
    indptr = indptr_from_lengths(lengths)
    nnz = int(indptr[-1])
    max_elements = max(nnz + slack, 1)
    loop = reference_batches(indptr, max_elements)
    plan = plan_batches(indptr, max_elements)
    assert len(plan.batches) == len(loop) == (1 if nnz else 0)
    assert_same_batches(plan.batches, loop)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=60), st.integers(1, 50))
def test_vectorized_plan_equals_loop(lengths, max_elements):
    """Split pieces, empty segments and tiny budgets match the loop."""
    indptr = indptr_from_lengths(lengths)
    assert_same_batches(plan_batches(indptr, max_elements).batches,
                        reference_batches(indptr, max_elements))


@pytest.mark.parametrize("lengths", [[3, 0, 1, 0, 0, 2], [0, 0], [1],
                                     [5, 5, 0, 7]])
def test_unit_budget_equals_loop(lengths):
    indptr = indptr_from_lengths(lengths)
    plan = plan_batches(indptr, 1)
    assert all(b.n_elements == 1 for b in plan.batches)
    assert_same_batches(plan.batches, reference_batches(indptr, 1))
