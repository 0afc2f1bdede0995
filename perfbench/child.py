"""One measured call into gpClust, made by a fresh process.

``run.py`` starts this file once per sample, so every timed call is the
first call into the program in its process: no pass-plan, launch-graph or
alignment-throughput state survives from an earlier call.

Usage::

    python perfbench/child.py {e2e|traced} <workload> <input> <out.npz> <t_spawn>

``e2e`` times the workload's public entry point (``cluster_graph`` or
``run_end_to_end``).  ``traced`` composes the calls those entry points make
-- the layers of ``GpClust.run`` and ``build_homology_graph`` -- and times
each from outside.  Both write the output arrays to ``out.npz`` and print
one JSON line of timings and counts.  ``t_spawn`` is the parent's
``time.time()`` just before it started this process.
"""

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core.device_exec import device_shingle_pass
from repro.core.execplan import EXEC_PREFETCH, ExecutionPlan
from repro.core.params import (AGG_HOST, GROUPING_TWO_LEVEL, REPORT_PARTITION,
                               UNION_VECTORIZED)
from repro.core.pipeline import cluster_graph
from repro.core.report import report_clusters
from repro.device.alignment import DeviceAligner
from repro.device.batching import max_batch_elements, plan_batches
from repro.device.device import SimulatedDevice
from repro.device.timingmodels import DeviceSpec
from repro.eval.confusion import quality_scores
from repro.eval.density import density_summary
from repro.eval.partition import Partition
from repro.graph.csr import CSRGraph
from repro.graph.io import timed_load
from repro.pipeline.end_to_end import run_end_to_end
from repro.sequence.generator import SyntheticProteinSet
from repro.sequence.homology import HomologyConfig, choose_align_backend
from repro.sequence.kmer_filter import candidate_pairs
from repro.sequence.scoring import BLOSUM62
from repro.sequence.smith_waterman import (batch_self_scores,
                                           batch_smith_waterman,
                                           orient_pair_lengths)

import workloads as wl

T_READY = time.time()

#: Kernel-name prefix -> class reported as ``device.kernel_elements.<class>``;
#: every other kernel is a shingling kernel.
KERNEL_CLASSES = (("sw_", "align"), ("agg_", "aggregate"), ("cc_", "cc"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_e2e(name: str, path: Path) -> tuple[dict, dict]:
    """Time the workload's public entry point; return (record, arrays)."""
    if name == wl.PIPELINE:
        t0 = time.perf_counter()
        sequences, families = wl.read_fasta_input(path)
        protein_set = SyntheticProteinSet(
            sequences=sequences, family_labels=families,
            is_core=np.zeros(len(sequences), dtype=bool), config=None, seed=0)
        report = run_end_to_end(protein_set=protein_set,
                                params=wl.PIPELINE_PARAMS)
        wall = time.perf_counter() - t0
        graph = report.homology.graph
        result = report.clustering
        arrays = {"labels": result.labels, "indptr": graph.indptr,
                  "indices": graph.indices}
        record = {"align_backend": report.homology.align_backend,
                  "ppv": report.quality.ppv,
                  "sensitivity": report.quality.sensitivity,
                  "counts": {"candidate_pairs": report.homology.n_candidate_pairs,
                             "edges": report.homology.n_edges}}
    else:
        t0 = time.perf_counter()
        result = cluster_graph(path, wl.cluster_params(name),
                               device_spec=wl.device_spec(name))
        wall = time.perf_counter() - t0
        arrays = {"labels": result.labels}
        record = {"counts": {}}
    record["counts"].update(
        pass1_shingles=result.n_first_level_shingles,
        pass2_shingles=result.n_second_level_shingles)
    record["wall_s"] = wall
    return record, arrays


class Layers:
    """Busy seconds per layer, each timed from outside around its calls.

    ``bookkeeping_s`` is the harness's own counting between layer calls,
    which the traced wall time leaves out.
    """

    def __init__(self) -> None:
        self.busy: dict[str, float] = {}
        self.bookkeeping_s = 0.0

    @contextmanager
    def timed(self, layer: str | None):
        """Time a layer's calls; ``None`` times harness bookkeeping."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            if layer is None:
                self.bookkeeping_s += elapsed
            else:
                self.busy[layer] = self.busy.get(layer, 0.0) + elapsed


def _valid_segments(indptr: np.ndarray, s: int) -> int:
    return int(np.count_nonzero(np.diff(indptr) >= s))


def traced_cluster(graph: CSRGraph, params, spec: DeviceSpec | None,
                   layers: Layers, counts: dict, devices: list) -> np.ndarray:
    """``GpClust.run`` for a partition-mode, two-level run, layer by layer."""
    if params.grouping != GROUPING_TWO_LEVEL or params.report_mode != REPORT_PARTITION:
        raise ValueError("traced composition covers two-level partition runs")
    plan = params.execution_plan()
    spec = spec or DeviceSpec()
    device = SimulatedDevice(spec)
    devices.append(device)

    def shingle_pass(indptr, elements, level):
        return device_shingle_pass(
            indptr, elements, params.pass_config(level), device,
            kernel=params.kernel, trial_chunk=params.trial_chunk, plan=plan)

    with layers.timed("pass1"):
        pass1 = shingle_pass(graph.indptr, graph.indices, 1)
    with layers.timed("pass2_input"):
        indptr2, elements2 = pass1.next_pass_input()
    with layers.timed("pass2"):
        pass2 = shingle_pass(indptr2, elements2, 2)
    use_device_cc = (params.aggregate_backend != AGG_HOST
                     and params.union_backend == UNION_VECTORIZED)
    with layers.timed("phase3"):
        labels = report_clusters(
            pass1, pass2, graph.n_vertices, mode=params.report_mode,
            backend=params.union_backend,
            include_generators=params.include_generators,
            device=device if use_device_cc else None)
    with layers.timed(None):
        labels = np.asarray(labels, dtype=np.int64)
        counts.update(_cluster_counts(graph, params, spec, plan, pass1,
                                      pass2, indptr2, elements2, labels))
    return labels


def _cluster_counts(graph, params, spec, plan, pass1, pass2, indptr2,
                    elements2, labels) -> dict:
    # Batch geometry as device_shingle_pass plans it.
    budget = max(max_batch_elements(spec.memory_capacity_bytes,
                                    params.trial_chunk, params.s1)
                 // plan.resident_factor, 1)
    lengths = np.diff(graph.indptr)
    compact = np.concatenate(([0], np.cumsum(lengths[lengths >= params.s1])))
    segments2 = _valid_segments(indptr2, params.s2)
    return dict(
        pass1_batches=plan_batches(compact, budget).n_batches,
        pass1_segments=_valid_segments(graph.indptr, params.s1),
        pass1_shingles=pass1.n_shingles,
        pass2_elements=int(elements2.size),
        pass2_segments=segments2,
        pass2_slots=params.c2 * segments2,
        pass2_shingles=pass2.n_shingles,
        phase3_clusters=int(np.count_nonzero(np.bincount(labels) >= 2)))


def traced_pipeline(path: Path, layers: Layers, counts: dict, devices: list,
                    record: dict) -> dict:
    """``run_end_to_end`` with ``build_homology_graph`` taken apart."""
    config = HomologyConfig()
    with layers.timed("io.load"):
        sequences, families = wl.read_fasta_input(path)
    n = len(sequences)
    with layers.timed("kmer_filter"):
        pairs = candidate_pairs(sequences, k=config.k,
                                min_shared=config.min_shared_kmers,
                                max_kmer_occurrence=config.max_kmer_occurrence)
    with layers.timed("self_scores"):
        refs = np.unique(pairs)
        selfs = np.zeros(n, dtype=np.int64)
        selfs[refs] = batch_self_scores([sequences[i] for i in refs], BLOSUM62)
        denom = np.minimum(selfs[pairs[:, 0]], selfs[pairs[:, 1]])
    with layers.timed("alignment"):
        lengths = np.fromiter((s.size for s in sequences), dtype=np.int64,
                              count=n)
        short_l, long_l = orient_pair_lengths(pairs, lengths)
        cells = int((short_l.astype(np.int64) * long_l).sum())
        backend = choose_align_backend(config.align_backend,
                                       int(pairs.shape[0]), cells,
                                       config.n_jobs)
        if backend == "device":
            aligner = DeviceAligner(
                plan=ExecutionPlan.from_mode(EXEC_PREFETCH))
            devices.append(aligner.device)
            aligner.upload_sequences(sequences)
            scores = aligner.batch_scores(pairs, gap_model=config.gap_model,
                                          gap=config.gap)
            aligner.release()
        elif backend == "host":
            scores = batch_smith_waterman(
                [sequences[i] for i in pairs[:, 0]],
                [sequences[j] for j in pairs[:, 1]], matrix=BLOSUM62,
                gap=config.gap, chunk_size=config.chunk_size)
        else:
            raise ValueError(f"unexpected alignment backend {backend!r}")
        keep = scores / np.maximum(denom, 1) >= config.min_normalized_score
        edges = pairs[keep]
    with layers.timed("csr_build"):
        graph = CSRGraph.from_edges(edges, n_vertices=n)
    labels = traced_cluster(graph, wl.PIPELINE_PARAMS, None, layers, counts,
                            devices)
    with layers.timed("eval"):
        test = Partition(labels)
        quality = quality_scores(test, Partition(families),
                                 min_size=wl.QUALITY_MIN_SIZE[wl.PIPELINE])
        density_summary(graph, test, min_size=wl.QUALITY_MIN_SIZE[wl.PIPELINE])
    counts.update(candidate_pairs=int(pairs.shape[0]), edges=graph.n_edges,
                  dp_cells=cells)
    record.update(align_backend=backend, ppv=quality.ppv,
                  sensitivity=quality.sensitivity)
    return {"labels": labels, "indptr": graph.indptr, "indices": graph.indices}


def _device_counts(devices: list) -> dict:
    out = {"h2d_bytes": 0, "d2h_bytes": 0, "kernel_launches": 0}
    out.update({f"kernel_elements.{cls}": 0
                for cls in ("shingle", "aggregate", "cc", "align")})
    for device in devices:
        out["h2d_bytes"] += int(device.memory.bytes_to_device)
        out["d2h_bytes"] += int(device.memory.bytes_to_host)
        for kernel, stats in device.kernel_stats.items():
            cls = next((c for p, c in KERNEL_CLASSES if kernel.startswith(p)),
                       "shingle")
            out["kernel_launches"] += int(stats["launches"])
            out[f"kernel_elements.{cls}"] += int(stats["elements"])
    return out


def run_traced(name: str, path: Path) -> tuple[dict, dict]:
    """Compose the layer calls, each timed; return (record, arrays)."""
    layers, counts, devices, record = Layers(), {}, [], {}
    t0 = time.perf_counter()
    if name == wl.PIPELINE:
        arrays = traced_pipeline(path, layers, counts, devices, record)
    else:
        # A cluster workload enters no sequence layer and no scoring; each
        # is still timed around its empty place in the composition, so every
        # reported busy time is a measurement (here the timer's own cost).
        for layer in ("kmer_filter", "self_scores", "alignment", "csr_build",
                      "eval"):
            with layers.timed(layer):
                pass
        with layers.timed("io.load"):
            graph, _ = timed_load(path)
        arrays = {"labels": traced_cluster(
            graph, wl.cluster_params(name), wl.device_spec(name), layers,
            counts, devices)}
    wall = time.perf_counter() - t0 - layers.bookkeeping_s
    counts.update({f"device.{k}": v for k, v in _device_counts(devices).items()})
    record.update(wall_s=wall, layers=layers.busy, counts=counts)
    return record, arrays


def main(argv: list[str]) -> int:
    mode, name, path, out, t_spawn = argv
    run = run_e2e if mode == "e2e" else run_traced
    record, arrays = run(name, Path(path))
    record.update(setup_s=T_READY - float(t_spawn), peak_rss_mb=_peak_rss_mb())
    np.savez(out, **arrays)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
