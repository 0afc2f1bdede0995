"""Device-offloaded alignment: kernels, bin planner, aligner, scheduler.

The central contract is bit-identity: the device path (length-binned
packing + anti-diagonal wavefront kernels) must reproduce the host batched
Smith-Waterman scores exactly, for both gap models, every DP dtype the
escalation rule can pick, every execution plan, any bin geometry, and
in-process or fanned out across forked workers.
"""

import dataclasses
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.execplan import (
    EXEC_MODES,
    EXEC_MULTISTREAM,
    EXEC_PREFETCH,
    EXEC_SYNC,
    ExecutionPlan,
)
from repro.device import DeviceAligner, SimulatedDevice
from repro.device import alignment as alignment_mod
from repro.device.alignment import (
    pack_bin_blocks,
    wavefront_affine_binned,
    wavefront_linear_binned,
)
from repro.device.batching import plan_alignment_bins
from repro.device.memory import ScratchPool
from repro.sequence import homology as homology_mod
from repro.sequence.arena import flatten_sequences
from repro.sequence.homology import (
    HomologyConfig,
    build_homology_graph,
    choose_align_backend,
    observe_alignment_throughput,
)
from repro.sequence.scoring import BLOSUM62
from repro.obs import observe, use_obs
from repro.sequence.smith_waterman import (
    batch_smith_waterman,
    batch_smith_waterman_affine,
    dp_dtype,
    sw_score_affine,
    sw_score_linear,
)


def random_seqs(rng, n, len_max=80, allow_empty=True):
    lo = 0 if allow_empty else 1
    return [rng.integers(0, 21, size=int(rng.integers(lo, len_max)),
                         ).astype(np.uint8) for _ in range(n)]


def random_pairs(rng, n_seqs, n_pairs):
    return rng.integers(0, n_seqs, size=(n_pairs, 2)).astype(np.int64)


# --------------------------------------------------------------------- #
# Bin planner
# --------------------------------------------------------------------- #

class TestBinPlanner:
    def dtype_for(self, gap=8):
        return lambda s, l: dp_dtype(s, l, BLOSUM62, (gap,))

    def test_partition_covers_all_pairs_in_order(self):
        rng = np.random.default_rng(0)
        short = rng.integers(1, 200, size=500)
        long_ = short + rng.integers(0, 100, size=500)
        plan = plan_alignment_bins(short, long_, self.dtype_for())
        assert plan.bins[0].order_lo == 0
        for prev, cur in zip(plan.bins, plan.bins[1:]):
            assert prev.order_hi == cur.order_lo
        assert plan.bins[-1].order_hi == 500
        assert sorted(plan.order.tolist()) == list(range(500))

    def test_bins_are_length_sorted_and_sized(self):
        rng = np.random.default_rng(1)
        short = rng.integers(1, 50, size=1000)
        long_ = short + rng.integers(0, 30, size=1000)
        plan = plan_alignment_bins(short, long_, self.dtype_for(),
                                   max_pairs=64)
        for b in plan.bins:
            assert b.n_pairs <= 64
            members = plan.order[b.order_lo:b.order_hi]
            assert short[members].max() == b.max_short
            assert long_[members].max() == b.max_long

    def test_dtype_homogeneous_bins(self):
        # Lengths straddling the int16 escalation boundary must be cut
        # into dtype-pure bins.
        short = np.array([10, 20, 3000, 4000])
        long_ = np.array([10, 20, 3000, 4000])
        plan = plan_alignment_bins(short, long_, self.dtype_for(),
                                   min_pairs=1)
        seen = set()
        for b in plan.bins:
            members = plan.order[b.order_lo:b.order_hi]
            for m in members:
                assert dp_dtype(int(short[m]), int(long_[m]), BLOSUM62,
                                (8,)) <= b.dtype
            seen.add(b.dtype.name)
        assert seen == {"int16", "int32"}

    def test_waste_bounded_beyond_min_pairs(self):
        # A pathological mix: many tiny pairs then one giant one.  With
        # min_pairs=1 the waste rule must keep every bin under the cap.
        short = np.array([4] * 200 + [400])
        long_ = np.array([5] * 200 + [500])
        plan = plan_alignment_bins(short, long_, self.dtype_for(),
                                   max_waste=0.25, min_pairs=1)
        for b in plan.bins:
            assert b.padding_waste <= 0.25 + 1e-9
        assert plan.padding_waste <= 0.25 + 1e-9

    def test_empty_input(self):
        plan = plan_alignment_bins(np.empty(0, dtype=np.int64),
                                   np.empty(0, dtype=np.int64),
                                   self.dtype_for())
        assert plan.n_bins == 0
        assert plan.padding_waste == 0.0

    def test_homogeneous_lengths_waste_free(self):
        short = np.full(100, 17)
        long_ = np.full(100, 23)
        plan = plan_alignment_bins(short, long_, self.dtype_for())
        assert plan.padding_waste == 0.0


# --------------------------------------------------------------------- #
# Pack + scan + rowscan kernels
# --------------------------------------------------------------------- #

class TestKernels:
    def test_pack_blocks_match_naive(self):
        rng = np.random.default_rng(2)
        seqs = random_seqs(rng, 20, len_max=30)
        residues, offsets = flatten_sequences(seqs)
        residues16 = residues.astype(np.int16)
        short_ids = np.array([0, 3, 7, 19])
        long_ids = np.array([1, 2, 7, 0])
        ms = max(seqs[i].size for i in short_ids)
        ml = max(seqs[i].size for i in long_ids)
        arow, bt = pack_bin_blocks(residues16, offsets, short_ids, long_ids,
                                   ms, ml)
        assert arow.shape == (max(ms, 1), 4)
        assert bt.shape == (max(ml, 1), 4)
        for col, (i, j) in enumerate(zip(short_ids, long_ids)):
            a, b = seqs[i], seqs[j]
            expect_a = np.full(max(ms, 1), 21, dtype=np.int16)
            expect_a[:a.size] = a
            assert np.array_equal(arow[:, col], expect_a * 22)
            expect_b = np.full(max(ml, 1), 21, dtype=np.int16)
            expect_b[:b.size] = b
            assert np.array_equal(bt[:, col], expect_b)

    @pytest.mark.parametrize("gap", [0, 1, 8])
    def test_rowscan_linear_binned_matches_host(self, gap):
        rng = np.random.default_rng(4)
        seqs = random_seqs(rng, 40, len_max=70)
        pairs = random_pairs(rng, 40, 120)
        seqs_a = [seqs[i] for i in pairs[:, 0]]
        seqs_b = [seqs[j] for j in pairs[:, 1]]
        ref = batch_smith_waterman(seqs_a, seqs_b, gap=gap)
        al = DeviceAligner(SimulatedDevice())
        al.upload_sequences(seqs)
        got = al.batch_scores(pairs, gap_model="linear", gap=gap)
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("gap_open,gap_extend",
                             [(11, 1), (1, 11), (0, 0), (5, 5)])
    def test_rowscan_affine_binned_matches_host(self, gap_open, gap_extend):
        rng = np.random.default_rng(5)
        seqs = random_seqs(rng, 40, len_max=70)
        pairs = random_pairs(rng, 40, 120)
        seqs_a = [seqs[i] for i in pairs[:, 0]]
        seqs_b = [seqs[j] for j in pairs[:, 1]]
        ref = batch_smith_waterman_affine(seqs_a, seqs_b,
                                          gap_open=gap_open,
                                          gap_extend=gap_extend)
        al = DeviceAligner(SimulatedDevice())
        al.upload_sequences(seqs)
        got = al.batch_scores(pairs, gap_model="affine", gap_open=gap_open,
                              gap_extend=gap_extend)
        assert np.array_equal(ref, got)

    def test_int32_escalation_matches_host(self):
        # gap > 512 disqualifies int16 (the shared dp_dtype rule), so this
        # exercises the int32 kernels end to end.
        rng = np.random.default_rng(6)
        seqs = random_seqs(rng, 20, len_max=50, allow_empty=False)
        pairs = random_pairs(rng, 20, 60)
        seqs_a = [seqs[i] for i in pairs[:, 0]]
        seqs_b = [seqs[j] for j in pairs[:, 1]]
        ref = batch_smith_waterman(seqs_a, seqs_b, gap=600)
        al = DeviceAligner(SimulatedDevice())
        al.upload_sequences(seqs)
        got = al.batch_scores(pairs, gap_model="linear", gap=600)
        assert al.last_plan.bins[0].dtype == np.int32
        assert np.array_equal(ref, got)

    def test_direct_kernel_calls(self):
        # The kernel functions are usable standalone on a packed block.
        rng = np.random.default_rng(7)
        seqs = random_seqs(rng, 10, len_max=25, allow_empty=False)
        residues, offsets = flatten_sequences(seqs)
        ids = np.arange(10)
        lens = np.diff(offsets)
        order = np.argsort(lens, kind="stable")
        short_ids = long_ids = order
        ms = ml = int(lens.max())
        arow, bt = pack_bin_blocks(residues.astype(np.int16), offsets,
                                   short_ids, long_ids, ms, ml)
        pool = ScratchPool()
        lin = wavefront_linear_binned(arow, bt, BLOSUM62, 8,
                                      np.dtype(np.int16), pool)
        aff = wavefront_affine_binned(arow, bt, BLOSUM62, 11, 1,
                                      np.dtype(np.int16), pool)
        ref_l = batch_smith_waterman([seqs[i] for i in order],
                                     [seqs[i] for i in order])
        ref_a = batch_smith_waterman_affine([seqs[i] for i in order],
                                            [seqs[i] for i in order])
        assert np.array_equal(lin, ref_l)
        assert np.array_equal(aff, ref_a)


# --------------------------------------------------------------------- #
# Wavefront kernels vs the scalar references, pair by pair
# --------------------------------------------------------------------- #

SEQ = st.lists(st.integers(0, 20), max_size=20)
LANES = st.lists(st.tuples(SEQ, SEQ), min_size=1, max_size=9)


def score_packed_bin(lanes, kernel, penalties):
    """Pack ``lanes`` (pairs of residue lists) as one bin, oriented and
    PAD-padded the way the aligner packs it, and run ``kernel`` on it.

    Returns ``(kernel scores, oriented pairs, bin dtype)``.
    """
    pairs = [(np.array(a, dtype=np.uint8), np.array(b, dtype=np.uint8))
             for a, b in lanes]
    pairs = [(a, b) if a.size <= b.size else (b, a) for a, b in pairs]
    residues, offsets = flatten_sequences([s for pair in pairs for s in pair])
    ids = np.arange(len(pairs)) * 2
    max_short = max(a.size for a, _ in pairs)
    max_long = max(b.size for _, b in pairs)
    arow, bt = pack_bin_blocks(residues.astype(np.int16), offsets, ids,
                               ids + 1, max_short, max_long)
    dtype = dp_dtype(max_short, max_long, BLOSUM62, penalties)
    scores = kernel(arow, bt, BLOSUM62, *penalties, dtype, ScratchPool())
    return scores, pairs, dtype


class TestWavefrontKernels:
    @given(lanes=LANES, gap=st.sampled_from([0, 1, 8, 600]))
    @example(lanes=[([], [])], gap=8)                     # all-empty bin
    @example(lanes=[([], [1, 2]), ([3], [])], gap=8)      # empty lanes
    @example(lanes=[([3], [5, 6, 7, 8])], gap=1)          # la == 1
    @example(lanes=[([4], [4]), ([], [9])], gap=8)        # lb == 1
    @example(lanes=[([1, 2, 3], [3, 2, 1]), ([7, 7], [7, 7])], gap=0)
    @example(lanes=[([1, 2], [1, 2, 3, 4, 5, 6, 7]),      # ragged, odd lanes
                    ([5, 5, 5, 5], [5, 5, 5, 5, 5]),
                    ([9], [9, 9])], gap=8)
    @example(lanes=[([1, 2, 3, 4], [4, 3, 2, 1, 0])], gap=600)   # int32
    @settings(max_examples=60, deadline=None)
    def test_linear_matches_scalar(self, lanes, gap):
        scores, pairs, dtype = score_packed_bin(
            lanes, wavefront_linear_binned, (gap,))
        if gap > 512:
            assert dtype == np.int32
        expect = [sw_score_linear(a, b, gap=gap) for a, b in pairs]
        assert scores.tolist() == expect

    @given(lanes=LANES,
           gaps=st.sampled_from([(11, 1), (1, 11), (0, 0), (5, 5),
                                 (0, 3), (700, 1)]))
    @example(lanes=[([], [])], gaps=(11, 1))
    @example(lanes=[([3], [5, 6, 7, 8]), ([], [2])], gaps=(1, 11))
    @example(lanes=[([4], [4])], gaps=(11, 1))
    @example(lanes=[([1, 2, 3], [3, 2, 1]), ([7, 7], [7, 7])], gaps=(0, 0))
    @example(lanes=[([1, 2], [1, 2, 3, 4, 5, 6, 7]),
                    ([5, 5, 5, 5], [5, 5, 9, 5, 5]),
                    ([9], [9, 9])], gaps=(2, 5))          # open < extend
    @example(lanes=[([1, 2, 3, 4], [4, 3, 2, 1, 0])], gaps=(700, 1))
    @settings(max_examples=60, deadline=None)
    def test_affine_matches_scalar(self, lanes, gaps):
        scores, pairs, dtype = score_packed_bin(
            lanes, wavefront_affine_binned, gaps)
        if max(gaps) > 512:
            assert dtype == np.int32
        expect = [sw_score_affine(a, b, gap_open=gaps[0],
                                  gap_extend=gaps[1]) for a, b in pairs]
        assert scores.tolist() == expect


# --------------------------------------------------------------------- #
# DeviceAligner facade
# --------------------------------------------------------------------- #

class TestDeviceAligner:
    def make(self, **kw):
        al = DeviceAligner(SimulatedDevice(), **kw)
        rng = np.random.default_rng(8)
        seqs = random_seqs(rng, 50, len_max=60)
        pairs = random_pairs(rng, 50, 300)
        return al, seqs, pairs

    def test_requires_resident_sequences(self):
        al = DeviceAligner(SimulatedDevice())
        with pytest.raises(RuntimeError, match="resident"):
            al.batch_scores(np.array([[0, 1]]))

    def test_rejects_unknown_gap_model(self):
        al, seqs, pairs = self.make()
        al.upload_sequences(seqs)
        with pytest.raises(ValueError, match="gap_model"):
            al.batch_scores(pairs, gap_model="convex")

    def test_empty_pairs(self):
        al, seqs, _ = self.make()
        al.upload_sequences(seqs)
        out = al.batch_scores(np.empty((0, 2), dtype=np.int64))
        assert out.size == 0
        assert al.last_plan.n_bins == 0

    @pytest.mark.parametrize("mode", EXEC_MODES)
    def test_exec_modes_bit_identical(self, mode):
        al, seqs, pairs = self.make(plan=ExecutionPlan.from_mode(mode),
                                    max_pairs_per_bin=48)
        al.upload_sequences(seqs)
        got = al.batch_scores(pairs)
        ref = batch_smith_waterman([seqs[i] for i in pairs[:, 0]],
                                   [seqs[j] for j in pairs[:, 1]])
        assert np.array_equal(ref, got)
        assert al.last_plan.n_bins > 1    # the schedule had work to overlap

    def test_transfers_and_kernels_accounted(self):
        al, seqs, pairs = self.make()
        with al:
            al.upload_sequences(seqs)
            al.batch_scores(pairs)
            dev = al.device
            stats = dev.kernel_stats
            for name in ("sw_widen", "sw_pack", "sw_wavefront"):
                assert stats[name]["launches"] >= 1
                assert stats[name]["modeled_s"] > 0
            assert dev.memory.bytes_to_device > 0   # residues + offsets + pairs
            assert dev.memory.bytes_to_host == pairs.shape[0] * 8  # scores
        assert dev.memory.used_bytes == 0           # release() freed all

    def test_padding_metrics_recorded(self):
        al, seqs, pairs = self.make()
        al.upload_sequences(seqs)
        al.batch_scores(pairs)
        snap = al.device.obs.metrics.snapshot()
        counters = snap["counters"]
        padded = counters["device.align.cells_padded"]
        actual = counters["device.align.cells_actual"]
        assert 0 < actual <= padded
        waste = snap["gauges"]["device.align.padding_waste"]
        assert waste == pytest.approx(1.0 - actual / padded, abs=1e-5)
        assert counters["device.align.pairs"] == pairs.shape[0]

    def test_scratch_pool_reused_across_calls(self):
        al, seqs, pairs = self.make()
        al.upload_sequences(seqs)
        al.batch_scores(pairs)
        allocs = al.device.scratch.n_allocations
        al.batch_scores(pairs)      # same geometry: zero fresh allocations
        assert al.device.scratch.n_allocations == allocs
        assert al.device.scratch.n_reuses > 0

    def test_waste_respects_planner_cap_on_family_data(self):
        from repro.sequence.generator import generate_protein_families

        ps = generate_protein_families(seed=11)
        al = DeviceAligner(SimulatedDevice())
        al.upload_sequences(ps.sequences)
        rng = np.random.default_rng(12)
        pairs = random_pairs(rng, len(ps.sequences), 2000)
        al.batch_scores(pairs)
        assert al.last_plan.padding_waste < 0.25


# --------------------------------------------------------------------- #
# Process fan-out on a single device
# --------------------------------------------------------------------- #

def align_counters(device):
    counters = device.obs.metrics.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("device.align.")}


class TestFanOut:
    @pytest.fixture()
    def workload(self):
        rng = np.random.default_rng(21)
        return random_seqs(rng, 60, len_max=70), random_pairs(rng, 60, 400)

    @pytest.fixture()
    def fan_calls(self, monkeypatch):
        """Counts ``_fan_out`` calls (each one forks a worker pool)."""
        calls = []
        orig = DeviceAligner._fan_out

        def spy(self, *args, **kw):
            calls.append(args[-1])          # n_workers
            return orig(self, *args, **kw)

        monkeypatch.setattr(DeviceAligner, "_fan_out", spy)
        return calls

    def run(self, seqs, pairs, mode, gap_model):
        with use_obs(observe()) as ctx:
            al = DeviceAligner(SimulatedDevice(),
                               plan=ExecutionPlan.from_mode(mode),
                               max_pairs_per_bin=48)
            al.upload_sequences(seqs)
            scores = al.batch_scores(pairs, gap_model=gap_model)
        mem = al.device.memory
        moved = (mem.bytes_to_device, mem.bytes_to_host)
        al.release()
        spans = [(r.name, r.attrs) for r in ctx.tracer.records
                 if r.name == "device.align_bin"]
        return scores, al.device, moved, sorted(spans, key=repr)

    @pytest.mark.parametrize("gap_model", ["linear", "affine"])
    @pytest.mark.parametrize("mode",
                             [EXEC_SYNC, EXEC_PREFETCH, EXEC_MULTISTREAM])
    def test_forked_equals_in_process(self, workload, fan_calls,
                                      monkeypatch, mode, gap_model):
        seqs, pairs = workload
        ref_scores, ref_dev, ref_moved, ref_spans = self.run(
            seqs, pairs, mode, gap_model)
        assert fan_calls == []              # default gate: in-process
        monkeypatch.setattr(alignment_mod, "_usable_cores", lambda: 2)
        monkeypatch.setattr(alignment_mod, "FANOUT_MIN_CELLS", 0)
        scores, dev, moved, spans = self.run(seqs, pairs, mode, gap_model)
        assert fan_calls == [2]

        assert np.array_equal(scores, ref_scores)
        stats, ref_stats = dev.kernel_stats, ref_dev.kernel_stats
        assert stats.keys() == ref_stats.keys()
        for name, ref in ref_stats.items():
            assert stats[name]["launches"] == ref["launches"]
            assert stats[name]["elements"] == ref["elements"]
            assert stats[name]["modeled_s"] == pytest.approx(ref["modeled_s"])
        assert moved == ref_moved
        assert dev.memory.used_bytes == 0
        assert align_counters(dev) == align_counters(ref_dev)
        assert spans == ref_spans

    def test_below_gate_never_forks(self, workload, fan_calls, monkeypatch):
        seqs, pairs = workload
        monkeypatch.setattr(alignment_mod, "_usable_cores", lambda: 2)
        al = DeviceAligner(SimulatedDevice(), max_pairs_per_bin=48)
        al.upload_sequences(seqs)
        al.batch_scores(pairs)
        assert al.last_plan.n_bins > 1
        assert al.last_plan.padded_cells < alignment_mod.FANOUT_MIN_CELLS
        assert fan_calls == []

    def test_single_core_never_forks(self, workload, fan_calls, monkeypatch):
        seqs, pairs = workload
        monkeypatch.setattr(alignment_mod, "_usable_cores", lambda: 1)
        monkeypatch.setattr(alignment_mod, "FANOUT_MIN_CELLS", 0)
        al = DeviceAligner(SimulatedDevice(), max_pairs_per_bin=48)
        al.upload_sequences(seqs)
        al.batch_scores(pairs)
        assert al.last_plan.n_bins > 1
        assert fan_calls == []

    def test_worker_error_reaches_caller(self, workload, monkeypatch):
        seqs, pairs = workload
        monkeypatch.setattr(alignment_mod, "_usable_cores", lambda: 2)
        monkeypatch.setattr(alignment_mod, "FANOUT_MIN_CELLS", 0)

        def broken(*args, **kw):
            raise ValueError("kernel fault")

        monkeypatch.setattr(alignment_mod, "wavefront_linear_binned", broken)
        al = DeviceAligner(SimulatedDevice(), max_pairs_per_bin=48)
        al.upload_sequences(seqs)
        with pytest.raises(ValueError, match="kernel fault"):
            al.batch_scores(pairs)
        al.release()
        assert al.device.memory.used_bytes == 0

    def test_worker_death_reaches_caller(self, workload, monkeypatch):
        seqs, pairs = workload
        monkeypatch.setattr(alignment_mod, "_usable_cores", lambda: 2)
        monkeypatch.setattr(alignment_mod, "FANOUT_MIN_CELLS", 0)
        monkeypatch.setattr(alignment_mod, "wavefront_linear_binned",
                            lambda *args, **kw: os._exit(3))
        al = DeviceAligner(SimulatedDevice(), max_pairs_per_bin=48)
        al.upload_sequences(seqs)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            al.batch_scores(pairs)

    def test_threaded_caller_stays_in_process(self, workload, fan_calls,
                                              monkeypatch):
        # Forking while another thread runs can deadlock the child.
        seqs, pairs = workload
        monkeypatch.setattr(alignment_mod, "_usable_cores", lambda: 2)
        monkeypatch.setattr(alignment_mod, "FANOUT_MIN_CELLS", 0)
        al = DeviceAligner(SimulatedDevice(), max_pairs_per_bin=48)
        al.upload_sequences(seqs)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            al.batch_scores(pairs)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert fan_calls == []


# --------------------------------------------------------------------- #
# Hybrid scheduler
# --------------------------------------------------------------------- #

@pytest.fixture
def fresh_cost_model(monkeypatch):
    """Scheduler tests run from priors, not other tests' measurements."""
    monkeypatch.setattr(homology_mod, "_measured_cells_per_s", {})


class TestScheduler:
    def test_explicit_backends_honored(self, fresh_cost_model):
        for be in ("host", "pool", "device"):
            assert choose_align_backend(be, 10, 100, 4) == be

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="align_backend"):
            choose_align_backend("gpu", 10, 100, 1)

    def test_auto_small_workload_never_spawns_pool(self, fresh_cost_model,
                                                   monkeypatch):
        # The small-workload parallel regression: --jobs 0 on a many-core
        # machine must not fork for a few hundred pairs.
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        choice = choose_align_backend("auto", 500, 500 * 40 * 40, 0)
        assert choice != "pool"

    def test_auto_large_workload_may_pool(self, fresh_cost_model,
                                          monkeypatch):
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        # Device deliberately measured slow so the pool's linear scaling
        # wins once every worker has enough pairs.
        observe_alignment_throughput("device", 10**6, 100.0)
        choice = choose_align_backend("auto", 100_000, 2 * 10**8, 0)
        assert choice == "pool"

    def test_auto_tiny_cells_prefers_host(self, fresh_cost_model):
        # Below the device's fixed setup cost the host path wins.
        assert choose_align_backend("auto", 50, 10_000, 1) == "host"

    def test_measured_throughput_feeds_back(self, fresh_cost_model):
        # Make the device look 100x faster than the host prior; auto must
        # follow the measurement even at modest scale.
        observe_alignment_throughput("device", 10**9, 0.05)
        assert choose_align_backend("auto", 10_000, 10**7, 1) == "device"
        # ...and an EMA, not a last-write-wins.
        before = homology_mod._measured_cells_per_s["device"]
        observe_alignment_throughput("device", 10**6, 100.0)
        after = homology_mod._measured_cells_per_s["device"]
        assert 1e4 < after < before

    def test_observe_ignores_degenerate_samples(self, fresh_cost_model):
        observe_alignment_throughput("host", 0, 1.0)
        observe_alignment_throughput("host", 100, 0.0)
        assert "host" not in homology_mod._measured_cells_per_s

    def test_auto_never_pools_below_spawn_amortization(self, fresh_cost_model,
                                                       monkeypatch):
        # The BENCH_PR6 regression pin: plenty of pairs but a sub-second
        # host estimate means the fork cost can never amortize, so the
        # pool must not even be a candidate.
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        small_cells = int(0.9 * 4 * homology_mod._POOL_SPAWN_S
                          * homology_mod._HOST_CELLS_PER_S)
        est = homology_mod._estimated_seconds(100_000, small_cells, 0)
        assert "pool" not in est

    def test_device_estimate_scales_with_device_count(self, fresh_cost_model):
        one = homology_mod._estimated_seconds(1000, 10**8, 1, n_devices=1)
        four = homology_mod._estimated_seconds(1000, 10**8, 1, n_devices=4)
        assert four["device"] < one["device"]
        # More devices shift auto toward the device backend.
        assert choose_align_backend("auto", 1000, 10**8, 1,
                                    n_devices=4) == "device"

    def test_config_validates_backend(self):
        with pytest.raises(ValueError, match="align_backend"):
            HomologyConfig(align_backend="gpu")

    def test_config_validates_devices(self):
        with pytest.raises(ValueError, match="devices"):
            HomologyConfig(devices=0)


class TestHomologyBackends:
    @pytest.fixture()
    def small_set(self):
        from repro.sequence.generator import generate_protein_families

        return generate_protein_families(seed=13).sequences

    @pytest.mark.parametrize("gap_model", ["linear", "affine"])
    def test_device_backend_bit_identical(self, small_set, gap_model):
        base = HomologyConfig(gap_model=gap_model)
        ref = build_homology_graph(
            small_set, dataclasses.replace(base, align_backend="host"))
        got = build_homology_graph(
            small_set, dataclasses.replace(base, align_backend="device"))
        assert got.align_backend == "device"
        assert ref.align_backend == "host"
        assert got.n_edges == ref.n_edges
        assert np.array_equal(got.graph.indptr, ref.graph.indptr)
        assert np.array_equal(got.graph.indices, ref.graph.indices)
        assert np.array_equal(got.normalized_scores, ref.normalized_scores)

    def test_device_backend_keep_scores_false(self, small_set):
        cfg = HomologyConfig(align_backend="device")
        ref = build_homology_graph(small_set, cfg)
        got = build_homology_graph(small_set, cfg, keep_scores=False)
        assert got.n_edges == ref.n_edges
        assert got.normalized_scores.size == 0
        assert got.pairs.size == 0

    def test_shared_device_accumulates(self, small_set):
        device = SimulatedDevice()
        cfg = HomologyConfig(align_backend="device")
        build_homology_graph(small_set, cfg, device=device)
        assert device.kernel_stats["sw_wavefront"]["launches"] >= 1
        assert device.memory.used_bytes == 0    # everything released

    def test_copy_thread_retired_before_scoring(self, small_set,
                                                monkeypatch):
        # Scoring may fork workers; the idle upload thread must be gone.
        alive = []
        orig = DeviceAligner.batch_scores

        def spy(self, *args, **kw):
            alive.extend(t.name for t in threading.enumerate())
            return orig(self, *args, **kw)

        monkeypatch.setattr(DeviceAligner, "batch_scores", spy)
        build_homology_graph(small_set,
                             HomologyConfig(align_backend="device"))
        assert alive and not any(n.startswith("align-copy") for n in alive)

    def test_auto_small_scale_matches_serial_choice(self, small_set,
                                                    monkeypatch):
        # Regression pin for the satellite: auto with --jobs 0 on a small
        # workload must resolve to an in-process backend (host or device),
        # never the pool, and produce the serial result.
        monkeypatch.setattr(homology_mod.os, "cpu_count", lambda: 8)
        ref = build_homology_graph(
            small_set, HomologyConfig(align_backend="host"))
        got = build_homology_graph(
            small_set, HomologyConfig(align_backend="auto", n_jobs=0))
        assert got.align_backend in ("host", "device")
        assert got.n_edges == ref.n_edges
        assert np.array_equal(got.normalized_scores, ref.normalized_scores)


# --------------------------------------------------------------------- #
# Property test: backend x gap model x dtype x bin edges x keep_scores
# --------------------------------------------------------------------- #

class TestBackendIdentityProperties:
    @given(seed=st.integers(0, 10_000),
           gap_model=st.sampled_from(["linear", "affine"]),
           escalate=st.booleans(),
           max_pairs=st.sampled_from([3, 17, 64, 384]),
           keep_scores=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_device_equals_host_everywhere(self, seed, gap_model, escalate,
                                           max_pairs, keep_scores):
        """Scores and edges are bit-identical between host and device for
        any gap model, DP dtype (``escalate`` drives penalties past the
        int16 bound), bin-edge choice, and score-retention mode."""
        rng = np.random.default_rng(seed)
        seqs = random_seqs(rng, int(rng.integers(3, 25)), len_max=50)
        if gap_model == "linear":
            penalties = {"gap": 700 if escalate else 8}
        else:
            penalties = {"gap_open": 700 if escalate else 11,
                         "gap_extend": 1}
        cfg = HomologyConfig(gap_model=gap_model, align_backend="host",
                             **penalties)
        ref = build_homology_graph(seqs, cfg, keep_scores=keep_scores)

        device_cfg = dataclasses.replace(cfg, align_backend="device")
        # Route the build through an aligner with the sampled bin edges.
        orig_init = DeviceAligner.__init__

        def patched_init(self, device=None, **kw):
            kw["max_pairs_per_bin"] = max_pairs
            kw["min_pairs_per_bin"] = min(2, max_pairs)
            orig_init(self, device, **kw)

        DeviceAligner.__init__ = patched_init
        try:
            got = build_homology_graph(seqs, device_cfg,
                                       keep_scores=keep_scores)
        finally:
            DeviceAligner.__init__ = orig_init
        assert got.n_edges == ref.n_edges
        assert np.array_equal(got.graph.indptr, ref.graph.indptr)
        assert np.array_equal(got.graph.indices, ref.graph.indices)
        assert np.array_equal(got.normalized_scores, ref.normalized_scores)
