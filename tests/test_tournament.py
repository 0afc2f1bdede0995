"""The per-batch tournament select on the fused shingle path.

The driver builds one :class:`~repro.device.kernels.TournamentPlan` per
batch; the batch's first trial chunk runs the eager kernels and checks the
tournament against them, and every later chunk selects through the plan.
None of this may change a result: pass results and labels stay
bit-identical to the serial oracle on every exec mode, aggregate backend
and device count, and out-of-scope geometries fall back to the eager
kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.device_exec import device_shingle_pass
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.core.serial import serial_shingle_pass
from repro.device import kernels
from repro.device.device import SimulatedDevice
from repro.device.group import DeviceGroup
from repro.device.kernels import (
    build_tournament_plan,
    fused_hash,
    run_tournament,
    segment_element_ids,
    segmented_select_top_s,
)
from repro.device.memory import ScratchPool
from repro.obs import observe, use_obs
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph

PRIME = 2147483647
BASE = ShinglingParams(s1=2, c1=8, s2=2, c2=6, trial_chunk=2)


@pytest.fixture(scope="module")
def planted():
    return planted_family_graph(PlantedFamilyConfig(n_families=8), seed=11)


@pytest.fixture(scope="module")
def serial_labels(planted):
    return SerialPClust(BASE).run(planted.graph).labels


def _distinct_csr(rng, n_seg, min_len, max_len, n_values):
    lengths = rng.integers(min_len, max_len + 1, n_seg)
    indptr = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    elements = np.concatenate([
        rng.choice(n_values, size=length, replace=False) for length in lengths
    ]).astype(np.int64)
    return elements, indptr


def _traced_run(params, graph, device=None):
    ctx = observe()
    with use_obs(ctx):
        labels = GpClust(params).run(graph, device=device).labels
    return labels, ctx.tracer.records


def _executors(records):
    return {r.attrs["executor"] for r in records
            if r.name == "device.shingle_chunk_reduce"}


# --------------------------------------------------------------------- #
# Kernel level
# --------------------------------------------------------------------- #


@st.composite
def tournament_inputs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    s = draw(st.integers(1, 4))
    n_seg = draw(st.integers(1, 30))
    max_len = draw(st.integers(s, 40))
    n_values = draw(st.integers(max_len, 300))
    t = draw(st.integers(1, 5))
    return seed, s, n_seg, max_len, n_values, t


@settings(max_examples=60, deadline=None)
@given(tournament_inputs())
def test_unpermuted_tournament_equals_select(inputs):
    """Random distinct-id CSR and coefficients: same top-s keys as eager."""
    seed, s, n_seg, max_len, n_values, t = inputs
    rng = np.random.default_rng(seed)
    elements, indptr = _distinct_csr(rng, n_seg, s, max_len, n_values)
    a = rng.integers(1, PRIME, t).astype(np.uint64)
    b = rng.integers(0, PRIME, t).astype(np.uint64)

    plan = build_tournament_plan(elements, indptr, s, n_values)
    assert plan is not None
    got = run_tournament(plan, ScratchPool(), a, b, PRIME, s,
                         out32=np.empty((t, n_seg, s), dtype=np.uint32))
    keys = fused_hash(elements, a, b, PRIME, n_values=n_values)
    want = segmented_select_top_s(keys, indptr, s)
    unpermuted = np.empty_like(got)
    unpermuted[:, plan.perm, :] = got
    assert np.array_equal(unpermuted, want)


@st.composite
def pass_shapes(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    c = draw(st.integers(3, 10))
    trial_chunk = draw(st.integers(2, 4))           # ragged trial tails
    n_seg = draw(st.integers(3, 14))
    max_len = draw(st.integers(0, 7))               # 0: an empty pass
    n_values = draw(st.integers(max(max_len, 4), 60))
    return seed, c, trial_chunk, n_seg, max_len, n_values


@settings(max_examples=25, deadline=None)
@given(pass_shapes())
def test_random_passes_match_serial(shape):
    """Segments below s, empty passes, ragged tails: still equal to serial."""
    seed, c, trial_chunk, n_seg, max_len, n_values = shape
    rng = np.random.default_rng(seed)
    elements, indptr = _distinct_csr(rng, n_seg, 0, max_len, n_values)
    config = ShinglingParams(c1=c, seed=int(seed % 997),
                             trial_chunk=trial_chunk).pass_config(1)
    device = SimulatedDevice()
    got = device_shingle_pass(indptr, elements, config, device,
                              kernel="fused", trial_chunk=trial_chunk)
    assert got == serial_shingle_pass(indptr, elements, config)
    stats = device.kernel_stats
    if "top_s_select" in stats:
        chunk_kernels = ("fused_transform", "top_s_select",
                         "chunk_reduce_sort", "chunk_reduce_fold")
        assert {stats[k]["launches"] for k in chunk_kernels} == {
            -(-c // trial_chunk)}


# --------------------------------------------------------------------- #
# Device level: executor choice per chunk
# --------------------------------------------------------------------- #


class TestChunkExecutor:
    S = 2
    N_VALUES = 90

    def _chunk(self, elements, indptr, a, b, plan):
        ctx = observe()
        with use_obs(ctx):
            device = SimulatedDevice()
            d_elems = device.upload(elements)
            d_indptr = device.upload(indptr)
            n_seg = indptr.size - 1
            d_gens = device.upload(np.arange(n_seg, dtype=np.uint32))
            out = device.shingle_chunk_reduce(
                d_elems, d_indptr, d_gens, a=a, b=b, prime=PRIME, s=self.S,
                salts=np.arange(1, a.size + 1, dtype=np.uint64),
                seg_ids=segment_element_ids(indptr), n_values=self.N_VALUES,
                tournament=plan)
            device.free(d_elems, d_indptr, d_gens)
        (span,) = [r for r in ctx.tracer.records
                   if r.name == "device.shingle_chunk_reduce"]
        return out, span.attrs["executor"]

    def _inputs(self, seed=4):
        rng = np.random.default_rng(seed)
        elements, indptr = _distinct_csr(rng, 25, self.S, 12, self.N_VALUES)
        a = rng.integers(1, PRIME, 3).astype(np.uint64)
        b = rng.integers(0, PRIME, 3).astype(np.uint64)
        return elements, indptr, a, b

    def test_first_chunk_verifies_then_tournament(self):
        elements, indptr, a, b = self._inputs()
        plan = build_tournament_plan(elements, indptr, self.S, self.N_VALUES)
        eager, ex0 = self._chunk(elements, indptr, a, b, None)
        checked, ex1 = self._chunk(elements, indptr, a, b, plan)
        assert plan.verified is True
        later, ex2 = self._chunk(elements, indptr, a, b, plan)
        assert (ex0, ex1, ex2) == ("eager", "verify", "tournament")
        for want, got1, got2 in zip(eager, checked, later):
            assert np.array_equal(got1, want)
            assert np.array_equal(got2, want)

    def test_zero_coefficient_takes_eager_path(self):
        elements, indptr, a, b = self._inputs(seed=9)
        plan = build_tournament_plan(elements, indptr, self.S, self.N_VALUES)
        a[1] = 0
        eager, _ = self._chunk(elements, indptr, a, b, None)
        got, executor = self._chunk(elements, indptr, a, b, plan)
        assert executor == "eager"
        assert plan.verified is None
        for want, have in zip(eager, got):
            assert np.array_equal(have, want)

    def test_failed_check_pins_eager(self):
        elements, indptr, a, b = self._inputs(seed=5)
        plan = build_tournament_plan(elements, indptr, self.S, self.N_VALUES)
        plan.verified = False
        _, executor = self._chunk(elements, indptr, a, b,
                                  plan)
        assert executor == "eager"


# --------------------------------------------------------------------- #
# Driver level
# --------------------------------------------------------------------- #


class TestDriver:
    def test_one_plan_span_per_batch_and_tournament_chunks(self, planted,
                                                           serial_labels):
        labels, records = _traced_run(BASE, planted.graph)
        assert np.array_equal(labels, serial_labels)
        plans = [r for r in records if r.name == "device.tournament_plan"]
        assert len(plans) == 2                      # one batch per pass
        for span in plans:
            assert span.attrs["verified"] is True
            assert span.attrs["bins"] >= 1
            assert span.attrs["n_seg"] > 0
        assert _executors(records) == {"verify", "tournament"}

    def test_duplicate_ids_take_eager_path(self):
        # Segment 1 repeats id 3: the plan is out of scope for the batch.
        indptr = np.array([0, 3, 7, 10], dtype=np.int64)
        elements = np.array([0, 1, 2, 3, 3, 4, 5, 1, 2, 6], dtype=np.int64)
        config = BASE.pass_config(1)
        want = device_shingle_pass(indptr, elements, config,
                                   SimulatedDevice(), kernel="select",
                                   trial_chunk=2)
        ctx = observe()
        with use_obs(ctx):
            device = SimulatedDevice()
            got = device_shingle_pass(indptr, elements, config, device,
                                      kernel="fused", trial_chunk=2)
        assert got == want
        (span,) = [r for r in ctx.tracer.records
                   if r.name == "device.tournament_plan"]
        assert span.attrs["bins"] == 0 and span.attrs["verified"] is False
        assert _executors(ctx.tracer.records) == {"eager"}

    def test_mismatch_pins_batch_to_eager(self, planted, serial_labels,
                                          monkeypatch):
        real = kernels.run_tournament

        def corrupted(plan, pool, a, b, prime, s, out32, table=None):
            real(plan, pool, a, b, prime, s, out32, table=table)
            out32[0, 0, 0] ^= 1
            return out32

        monkeypatch.setattr(kernels, "run_tournament", corrupted)
        labels, records = _traced_run(BASE, planted.graph)
        assert np.array_equal(labels, serial_labels)
        plans = [r for r in records if r.name == "device.tournament_plan"]
        assert plans and all(r.attrs["verified"] is False for r in plans)
        assert _executors(records) == {"verify", "eager"}

    @pytest.mark.parametrize("backend", ["auto", "host", "device"])
    @pytest.mark.parametrize("exec_mode,devices", [
        ("sync", 1), ("prefetch", 1), ("multistream", 1),
        ("multidevice", 2), ("multidevice", 4)])
    def test_labels_match_serial(self, planted, serial_labels, backend,
                                 exec_mode, devices):
        params = BASE.with_overrides(exec_mode=exec_mode, devices=devices,
                                     aggregate_backend=backend)
        labels, records = _traced_run(params, planted.graph)
        assert np.array_equal(labels, serial_labels)
        assert "tournament" in _executors(records)

    @pytest.mark.parametrize("exec_mode,devices", [
        ("sync", 1), ("multistream", 1), ("multidevice", 2)])
    def test_pass_results_match_serial(self, planted, exec_mode, devices):
        graph = planted.graph
        params = BASE.with_overrides(exec_mode=exec_mode, devices=devices)
        config = params.pass_config(1)
        want = serial_shingle_pass(graph.indptr, graph.indices, config)
        device = DeviceGroup(devices) if devices > 1 else SimulatedDevice()
        got = device_shingle_pass(graph.indptr, graph.indices, config,
                                  device, kernel="fused", trial_chunk=2,
                                  plan=params.execution_plan())
        assert got == want
