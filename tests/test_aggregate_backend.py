"""Device-backed inter-pass aggregation — bit-identity and fallbacks.

The ``aggregate_backend`` switch must never change a result: the
``agg_merge`` group-by kernel and the on-device Phase III must produce bit-identical :class:`PassResult`s and
cluster labels across backends, execution modes and device counts — and the
forced-``device`` backend must silently degrade to the host path whenever
its prerequisites (the on-device chunk reduction, a single batch, resident
fit) are missing.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregate import StreamingAggregator
from repro.core.device_exec import device_shingle_pass
from repro.core.params import (
    AGGREGATE_BACKENDS,
    ShinglingParams,
)
from repro.core.pipeline import GpClust, SerialPClust
from repro.device.device import SimulatedDevice
from repro.core.serial import serial_shingle_pass
from repro.device.group import DeviceGroup
from repro.device.kernels import unique_first
from repro.obs import observe, use_obs
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph


@pytest.fixture(scope="module")
def planted():
    return planted_family_graph(PlantedFamilyConfig(n_families=8), seed=7)


BASE = ShinglingParams(s1=2, c1=8, s2=2, c2=6, trial_chunk=2)


def _run(planted, **overrides):
    return GpClust(BASE.with_overrides(**overrides)).run(planted.graph)


class TestBitIdentity:
    def test_host_backend_matches_serial(self, planted):
        serial = SerialPClust(BASE).run(planted.graph)
        host = _run(planted, aggregate_backend="host")
        assert np.array_equal(host.labels, serial.labels)

    @pytest.mark.parametrize("backend", ["auto", "device"])
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_labels_identical_across_backends_and_devices(
            self, planted, backend, devices):
        ref = _run(planted, aggregate_backend="host")
        got = _run(planted, aggregate_backend=backend, devices=devices)
        assert np.array_equal(got.labels, ref.labels)

    @pytest.mark.parametrize("exec_mode", ["sync", "prefetch", "multistream"])
    def test_labels_identical_across_exec_modes(self, planted, exec_mode):
        ref = _run(planted, aggregate_backend="host")
        got = _run(planted, aggregate_backend="device", exec_mode=exec_mode)
        assert np.array_equal(got.labels, ref.labels)

    @pytest.mark.parametrize("devices", [1, 2])
    def test_pass_result_identical(self, planted, devices):
        graph = planted.graph
        config = BASE.pass_config(1)
        ref = device_shingle_pass(
            graph.indptr, graph.indices, config, SimulatedDevice(),
            kernel="fused", trial_chunk=2)
        device = DeviceGroup(devices) if devices > 1 else SimulatedDevice()
        params = BASE.with_overrides(aggregate_backend="device",
                                     devices=devices)
        got = device_shingle_pass(
            graph.indptr, graph.indices, params.pass_config(1), device,
            kernel="fused", trial_chunk=2, plan=params.execution_plan())
        assert got == ref


class TestCrossChunkCollisions:
    """One salt for every trial: equal member tuples of different trials
    share a fingerprint, so the merge's collision fallback must run across
    chunks (``trial_chunk`` 1) and within them (``trial_chunk`` 2)."""

    @pytest.mark.parametrize("trial_chunk", [1, 2])
    @pytest.mark.parametrize("backend", ["host", "device"])
    @pytest.mark.parametrize("devices", [1, 2])
    def test_equal_salts_match_serial(self, planted, trial_chunk, backend,
                                      devices):
        graph = planted.graph
        params = BASE.with_overrides(aggregate_backend=backend,
                                     devices=devices)
        config = params.pass_config(1)
        config = dataclasses.replace(
            config, salts=np.full(config.c, config.salts[0]))
        ref = serial_shingle_pass(graph.indptr, graph.indices, config)
        salted = serial_shingle_pass(graph.indptr, graph.indices,
                                     params.pass_config(1))
        assert ref.n_shingles < salted.n_shingles  # collisions did happen
        obs = observe()
        with use_obs(obs):
            device = (DeviceGroup(devices) if devices > 1
                      else SimulatedDevice())
            got = device_shingle_pass(
                graph.indptr, graph.indices, config, device, kernel="fused",
                trial_chunk=trial_chunk, plan=params.execution_plan())
        assert got == ref
        merged_on_device = any(r.name == "device.aggregate"
                               for r in obs.tracer.records)
        assert merged_on_device == (backend == "device")


class TestUniqueFirst:
    @given(st.lists(st.integers(0, 6), max_size=40))
    @example([])
    @example([5])
    @example([3, 3, 3, 3])
    @settings(max_examples=60, deadline=None)
    def test_matches_np_unique(self, values):
        keys = np.asarray(values, dtype=np.uint64)
        want = np.unique(keys, return_index=True, return_inverse=True)
        got = unique_first(keys)
        for w, g in zip(want, got):
            assert np.array_equal(w, g)


class TestFallbacks:
    def test_select_kernel_degrades_to_host(self, planted):
        # The select kernel has no on-device reduction, so there are no
        # resident partials to merge; forced "device" must degrade, not
        # fail, and still match.
        ref = _run(planted, aggregate_backend="host", kernel="select")
        obs = observe()
        with use_obs(obs):
            got = _run(planted, aggregate_backend="device", kernel="select")
        assert np.array_equal(got.labels, ref.labels)
        agg_spans = [r for r in obs.tracer.records
                     if r.name == "device.aggregate"]
        assert agg_spans == []

    def test_multi_batch_degrades_to_host(self, planted):
        ref = _run(planted, aggregate_backend="host")
        obs = observe()
        with use_obs(obs):
            got = GpClust(BASE.with_overrides(aggregate_backend="device"),
                          max_batch_elements=64).run(planted.graph)
        assert np.array_equal(got.labels, ref.labels)
        assert not any(r.name == "device.aggregate"
                       for r in obs.tracer.records)

    def test_resident_too_large_degrades_to_host(self, planted):
        # 1 MB fits every transient batch of this workload but fails the
        # worst-case resident-partials gate, so forced "device" must fall
        # back to host aggregation rather than risk an OOM mid-pass.
        from repro.device.timingmodels import DeviceSpec
        spec = DeviceSpec(memory_capacity_bytes=1 << 20)
        ref = _run(planted, aggregate_backend="host")
        obs = observe()
        with use_obs(obs):
            got = GpClust(BASE.with_overrides(aggregate_backend="device"),
                          device_spec=spec).run(planted.graph)
        assert np.array_equal(got.labels, ref.labels)
        assert not any(r.name == "device.aggregate"
                       for r in obs.tracer.records)


class TestObservability:
    def test_device_spans_counters_and_kernel_stats(self, planted):
        obs = observe()
        with use_obs(obs):
            device = SimulatedDevice()
            GpClust(BASE.with_overrides(aggregate_backend="device")).run(
                planted.graph, device=device)
        names = {r.name for r in obs.tracer.records}
        assert "device.aggregate" in names
        assert "device.cc.solve" in names
        counters = obs.metrics.snapshot()["counters"]
        assert counters["device.cc.rounds"] >= 1
        assert counters["device.cc.edges"] >= 0
        assert counters.get("device.aggregate.bytes_saved", 0) >= 0
        stats = device.kernel_stats
        for name in ("agg_merge", "cc_hook", "cc_jump"):
            assert stats[name]["launches"] >= 1, name

    def test_group_counters(self, planted):
        obs = observe()
        with use_obs(obs):
            _run(planted, aggregate_backend="device", devices=2)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["group.cc.rounds"] >= 1


class TestAggregatorGuards:
    def test_mixed_host_and_resident_rejected(self):
        agg = StreamingAggregator(2, 4, device=SimulatedDevice())
        agg.add(0, (np.zeros(0, np.uint64), np.zeros((0, 2), np.uint32),
                    np.zeros(0, np.uint32), np.zeros(0, np.uint32),
                    np.zeros(0, np.int64)))
        agg.add_resident(1, None, ())
        with pytest.raises(ValueError, match="mix"):
            agg.result()


class TestParams:
    def test_backends_enumerated(self):
        assert AGGREGATE_BACKENDS == ("auto", "host", "device")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="aggregate_backend"):
            ShinglingParams(aggregate_backend="gpu")

    def test_backend_threads_into_pass_config(self):
        params = ShinglingParams(aggregate_backend="device")
        assert params.pass_config(1).aggregate_backend == "device"
        assert params.pass_config(2).aggregate_backend == "device"
