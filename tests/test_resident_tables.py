"""Out-of-core fused passes: one resident hash table per trial chunk per pass.

When the fused kernel streams a graph through the device in several
batches, the driver builds each trial chunk's ``(t, n_values)`` hash table
once (a ``hash_table`` launch), keeps it resident for the whole pass and
frees it at the end; every batch gathers its keys from it.  Results must
equal the serial oracle under every execution plan, and the per-batch
build stays as the fallback when the tables would crowd the device.
"""

import numpy as np
import pytest

from repro.core.device_exec import device_shingle_pass
from repro.core.execplan import ExecutionPlan, trial_chunks
from repro.core.params import ShinglingParams
from repro.core.serial import serial_shingle_pass
from repro.device.device import SimulatedDevice
from repro.device.group import DeviceGroup, least_loaded_assignment
from repro.device.timingmodels import DeviceSpec
from repro.graph.csr import CSRGraph
from repro.obs import observe, use_obs

TRIAL_CHUNK = 4
#: Per pass level: derived budgets of ~2k (Pass I) and ~600 (Pass II)
#: elements per batch — several batches, each wider than the id range.
CAPACITY = {1: 400 * 2**10, 2: 120 * 2**10}

PLANS = {
    "sync": ExecutionPlan("sync"),
    "prefetch": ExecutionPlan("prefetch"),
    "multistream": ExecutionPlan("multistream", streams=2),
    "multidevice": ExecutionPlan("multidevice", devices=2),
}


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 200, size=(4000, 2))
    return CSRGraph.from_edges(edges[edges[:, 0] != edges[:, 1]],
                               n_vertices=200)


@pytest.fixture(scope="module")
def params():
    return ShinglingParams(c1=10, c2=6, seed=4)


def _device(mode: str, capacity: int = CAPACITY[1]):
    spec = DeviceSpec(memory_capacity_bytes=capacity)
    if mode == "multidevice":
        return DeviceGroup(2, spec)
    return SimulatedDevice(spec)


def _members(device):
    return device.members if isinstance(device, DeviceGroup) else [device]


def _launches(device, name="hash_table") -> int:
    return device.kernel_stats.get(name, {}).get("launches", 0)


def _traced_pass(mode, indptr, elements, config, capacity=CAPACITY[1],
                 trial_chunk=TRIAL_CHUNK, **kwargs):
    """A fused pass on a fresh device; returns (result, device, records)."""
    ctx = observe()
    with use_obs(ctx):
        device = _device(mode, capacity)
        baseline = [m.memory.used_bytes for m in _members(device)]
        got = device_shingle_pass(indptr, elements, config, device,
                                  kernel="fused", trial_chunk=trial_chunk,
                                  plan=PLANS[mode], **kwargs)
    assert [m.memory.used_bytes for m in _members(device)] == baseline
    return got, device, ctx.tracer.records


def _plan_span(records):
    (span,) = [r for r in records if r.name == "exec.plan_batches"]
    return span


@pytest.mark.parametrize("mode", list(PLANS))
@pytest.mark.parametrize("level", [1, 2])
def test_pass_matches_serial_with_one_table_per_chunk(graph, params, mode,
                                                      level):
    config1 = params.pass_config(1)
    indptr, elements = graph.indptr, graph.indices
    if level == 2:
        indptr, elements = serial_shingle_pass(
            indptr, elements, config1).next_pass_input()
    config = params.pass_config(level)
    want = serial_shingle_pass(indptr, elements, config)

    got, device, records = _traced_pass(mode, indptr, elements, config,
                                        capacity=CAPACITY[level])
    span = _plan_span(records)

    assert got == want
    assert span.attrs["n_batches"] > 1
    assert span.attrs["resident_tables"] is True
    chunks = trial_chunks(config.c, TRIAL_CHUNK)
    assert _launches(device) == len(chunks)
    assert _launches(device, "fused_transform") == (
        len(chunks) * span.attrs["n_batches"])
    if mode == "multidevice":
        # Each member builds tables only for the chunks it runs.
        owners = least_loaded_assignment([hi - lo for lo, hi in chunks], 2)
        assert [_launches(m) for m in device.members] == [
            owners.count(0), owners.count(1)]


def test_tables_are_charged_to_device_memory(graph, params):
    config = params.pass_config(1)
    device = _device("sync")
    device_shingle_pass(graph.indptr, graph.indices, config, device,
                        kernel="fused", trial_chunk=TRIAL_CHUNK)
    n_values = int(graph.indices.max()) + 1
    table_bytes = config.c * n_values * 4
    assert device.memory.peak_bytes > table_bytes
    assert device.memory.used_bytes == 0


def test_tables_that_crowd_the_device_fall_back(params):
    """Tables over half the capacity keep the per-batch build."""
    # c=64 trials in chunks of 1: the pass's tables (64 * n_values * 4 B)
    # outgrow half of a device whose batches still exceed n_values.
    n = 40
    rng = np.random.default_rng(1)
    edges = rng.integers(0, n, size=(3000, 2))
    g = CSRGraph.from_edges(edges[edges[:, 0] != edges[:, 1]], n_vertices=n)
    config = ShinglingParams(c1=64, c2=4, seed=2).pass_config(1)
    capacity = 300 * n  # budget: 12000 B // 56 B per element = 214 > n
    assert 2 * config.c * n * 4 > capacity
    got, device, records = _traced_pass("sync", g.indptr, g.indices, config,
                                        capacity=capacity, trial_chunk=1)
    span = _plan_span(records)
    assert span.attrs["n_batches"] > 1
    assert span.attrs["resident_tables"] is False
    assert _launches(device) == 0
    assert got == serial_shingle_pass(g.indptr, g.indices, config)


def test_explicit_budget_keeps_its_size(graph, params):
    """A caller's ``max_elements`` is not shrunk for the tables."""
    config = params.pass_config(1)
    got, device, records = _traced_pass("sync", graph.indptr, graph.indices,
                                        config, max_elements=1000)
    span = _plan_span(records)
    assert span.attrs["resident_tables"] is True
    assert span.attrs["n_batches"] == 8  # 7,218 elements, <= 1,000 a batch
    assert _launches(device) == len(trial_chunks(config.c, TRIAL_CHUNK))
    assert got == serial_shingle_pass(graph.indptr, graph.indices, config)


def test_batches_smaller_than_id_range_fall_back(graph, params):
    """No batch reaches n_values elements: fused_hash hashes directly."""
    config = params.pass_config(1)
    got, device, records = _traced_pass("sync", graph.indptr, graph.indices,
                                        config, max_elements=50)
    assert _plan_span(records).attrs["resident_tables"] is False
    assert _launches(device) == 0
    assert got == serial_shingle_pass(graph.indptr, graph.indices, config)


def test_non_fused_kernels_build_no_tables(graph, params):
    config = params.pass_config(1)
    device = _device("sync")
    got = device_shingle_pass(graph.indptr, graph.indices, config, device,
                              kernel="select", trial_chunk=TRIAL_CHUNK)
    assert _launches(device) == 0
    assert got == serial_shingle_pass(graph.indptr, graph.indices, config)


def test_hash_table_span_and_launch(graph, params):
    config = params.pass_config(1)
    _, device, records = _traced_pass("sync", graph.indptr, graph.indices,
                                      config)
    spans = [r for r in records if r.name == "device.hash_table"]
    n_values = int(graph.indices.max()) + 1
    assert [s.attrs["trials"] for s in spans] == [4, 4, 2]
    assert all(s.attrs["n_values"] == n_values for s in spans)
    stats = device.kernel_stats["hash_table"]
    assert stats["elements"] == config.c * n_values
