"""Measured-vs-modeled throughput per kernel class, and the select guard.

Two measurements of the fused shingle path:

* a shingle pass over a steady-shape workload, with per-kernel modeled
  elements/s from ``device.kernel_stats`` next to the measured pass
  elements/s, and
* the selection executors on the Table-I ``2m`` Pass II geometry: the eager
  ``fused_hash`` + ``segmented_select_top_s`` + ``recover_top_ids``
  sequence against the key-space tournament + ``recover_top_ids`` the
  driver runs on every chunk after a batch's first.  Best-of-N in one
  process, outputs checked equal; the tournament must stay within 1.10x of
  the eager wall (the guard CI runs), or the per-batch plan no longer
  earns its place.

Rows land in the ledger (``microbench_rows`` / ``executor_rows``) and in
``benchmarks/results/kernel_microbench.json`` /
``kernel_executors.json``.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.core.device_exec import device_shingle_pass
from repro.core.params import ShinglingParams
from repro.device.device import SimulatedDevice
from repro.device.kernels import (
    build_tournament_plan,
    fused_hash,
    recover_top_ids,
    run_tournament,
    segment_element_ids,
    segmented_select_top_s,
)
from repro.device.memory import ScratchPool
from repro.pipeline.workloads import make_runtime_workload, workload_params

TRIAL_CHUNK = 8
C = 32
S = 2
#: Tournament + recover wall may exceed eager select + recover by at most
#: this factor on the 2m Pass II geometry.
TOURNAMENT_MAX_RATIO = 1.10


def _workload(scale):
    rng = np.random.default_rng(3)
    n_seg = 3_000 if scale == "small" else 30_000
    n_values = n_seg
    lengths = rng.integers(S, 41, n_seg)
    indptr = np.zeros(n_seg + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    elements = np.concatenate([
        rng.choice(n_values, size=length, replace=False)
        for length in lengths
    ]).astype(np.int64)
    return indptr, elements, n_values


def _best_of(reps, fn):
    """(best seconds, last output) over ``reps`` calls, GC paused."""
    best, out = float("inf"), None
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best, out


def test_kernel_class_eps(scale, report_writer):
    indptr, elements, _ = _workload(scale)
    config = ShinglingParams(s1=S, c1=C, s2=S, c2=6,
                             trial_chunk=TRIAL_CHUNK).pass_config(1)
    devices = []

    def run():
        devices.append(SimulatedDevice())
        return device_shingle_pass(indptr, elements, config, devices[-1],
                                   kernel="fused", trial_chunk=TRIAL_CHUNK)

    wall, result = _best_of(3, run)
    assert result.n_shingles > 0
    stats = devices[-1].kernel_stats
    total_elements = sum(v["elements"] for v in stats.values())
    modeled_total = sum(v["modeled_s"] for v in stats.values())
    rows = {"shingle_pass": {
        "wall_s": round(wall, 4),
        "modeled_s": round(modeled_total, 4),
        "measured_eps": round(total_elements / wall),
        "modeled_eps": round(total_elements / modeled_total),
        "launches": sum(v["launches"] for v in stats.values()),
    }}
    per_kernel = {
        name: {"elements": v["elements"],
               "modeled_s": round(v["modeled_s"], 6),
               "modeled_eps": round(v["elements"] / v["modeled_s"])
               if v["modeled_s"] else None}
        for name, v in sorted(stats.items())
    }

    r = rows["shingle_pass"]
    lines = ["kernel class microbench (fresh-device shingle pass, best of 3)",
             "",
             f"wall {r['wall_s']:.4f}s, modeled {r['modeled_s']:.4f}s, "
             f"measured {r['measured_eps']:,} eps, {r['launches']} launches",
             "", "per-kernel modeled eps:"]
    for name, k in per_kernel.items():
        eps = f"{k['modeled_eps']:,}" if k["modeled_eps"] else "-"
        lines.append(f"  {name:<28}{k['elements']:>14,}{eps:>16}")
    report_writer("kernel_microbench", "\n".join(lines),
                  {"microbench_rows": rows, "per_kernel_modeled": per_kernel})


def _pass2_geometry(scale):
    """The 2m workload's compacted Pass II batch and its first chunk."""
    params = workload_params(scale)
    graph = make_runtime_workload("2m", scale).graph
    pass1 = device_shingle_pass(graph.indptr, graph.indices,
                                params.pass_config(1), SimulatedDevice(),
                                kernel="fused",
                                trial_chunk=params.trial_chunk)
    indptr, elements = pass1.next_pass_input()
    s = params.s2
    lengths = np.diff(indptr)
    keep = lengths >= s
    elements = np.asarray(elements, dtype=np.int64)[np.repeat(keep, lengths)]
    indptr = np.concatenate(([0], np.cumsum(lengths[keep]))).astype(np.int64)
    config = params.pass_config(2)
    t = min(params.trial_chunk, config.c)
    return (elements, indptr, s, int(elements.max()) + 1,
            config.a_array[:t], config.b_array[:t], config.prime)


def test_tournament_vs_eager_select(scale, report_writer):
    """The guard: tournament + recover <= 1.10x eager select + recover."""
    elements, indptr, s, n_values, a, b, prime = _pass2_geometry(scale)
    plan = build_tournament_plan(elements, indptr, s, n_values)
    assert plan is not None
    t, n_seg, nnz = a.size, indptr.size - 1, elements.size
    seg_ids = segment_element_ids(indptr)
    pool = ScratchPool()
    top32 = np.empty((t, n_seg, s), dtype=np.uint32)
    ids = np.empty((t, n_seg, s), dtype=np.uint64)

    def eager():
        # The device's eager front end: fused 32-bit hash, segmented
        # select on the keys, affine inversion of the top block.
        keys = pool.take((t, nnz), np.uint32)
        fused_hash(elements, a, b, prime, out=keys, scratch=pool,
                   n_values=n_values)
        segmented_select_top_s(keys, indptr, s, scratch=pool,
                               seg_ids=seg_ids, out=top32, consume=True)
        pool.give(keys)
        recover_top_ids(top32, a, b, prime, out_ids=ids, scratch=pool,
                        has_sentinels=False)
        return ids.copy()

    def tournament():
        run_tournament(plan, pool, a, b, prime, s, out32=top32)
        recover_top_ids(top32, a, b, prime, out_ids=ids, scratch=pool,
                        has_sentinels=False)
        return ids.copy()

    reps = 7
    eager(), tournament()  # warm the scratch pool
    eager_s, eager_ids = _best_of(reps, eager)
    tour_s, tour_ids = _best_of(reps, tournament)
    assert np.array_equal(tour_ids, eager_ids[:, plan.perm, :])
    ratio = tour_s / eager_s
    rows = {
        "eager_select_recover": {"best_s": round(eager_s, 5),
                                 "eps": round(nnz * t / eager_s)},
        "tournament_recover": {"best_s": round(tour_s, 5),
                               "eps": round(nnz * t / tour_s)},
    }
    lines = [f"2m Pass II chunk select (t={t}, n_seg={n_seg:,}, "
             f"nnz={nnz:,}, {len(plan.bins)} bins), best of {reps}", ""]
    for name, r in rows.items():
        lines.append(f"  {name:<24}{r['best_s']:>10.5f}s{r['eps']:>16,} eps")
    lines.append(f"  tournament / eager = {ratio:.3f} "
                 f"(guard <= {TOURNAMENT_MAX_RATIO})")
    report_writer("kernel_executors", "\n".join(lines),
                  {"executor_rows": rows, "tournament_ratio": round(ratio, 4)})
    assert ratio <= TOURNAMENT_MAX_RATIO, (
        f"tournament + recover {tour_s:.5f}s exceeds "
        f"{TOURNAMENT_MAX_RATIO}x eager select + recover {eager_s:.5f}s")
