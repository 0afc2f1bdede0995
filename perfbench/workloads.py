"""The benchmark's three workloads: inputs, call parameters and the oracle.

Each workload is a canonical input from ``repro.pipeline.workloads`` with
its vertex (or sequence) ids relabelled by a seeded random permutation.  A
relabelling keeps the amount of work fixed -- the same degrees, pair
counts and alignment cells -- while the ids, and therefore every min-hash
value, fingerprint and label, differ between variants.  The seed picks one
of :data:`VARIANTS` relabellings.  The serial oracle costs 45 s on
``cluster-2m`` and 23 s on ``cluster-rmat`` (2-core x86 host), so a bounded
variant set keeps the number of oracle computations per checkout bounded.

Why each workload exists:

``cluster-2m``
    The Table-I ``2m`` analogue: one device batch with dense planted cores,
    where Pass II and the fused/tournament kernel path dominate.
``cluster-rmat``
    The R-MAT ``large`` analogue on a 64 MiB device: a power-law graph
    larger than device memory, so Pass I takes the multi-batch split-merge
    path that bypasses the launch-graph cache.
``pipeline``
    FASTA -> homology graph -> families: alignment dominates, clustering is
    about 1% of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.params import ShinglingParams
from repro.core.pipeline import SerialPClust
from repro.device.timingmodels import DeviceSpec
from repro.graph.csr import CSRGraph
from repro.graph.io import load_npz, save_npz
from repro.pipeline.workloads import (WORKLOADS, make_homology_workload,
                                      make_large_workload,
                                      make_runtime_workload, workload_params)
from repro.sequence.alphabet import encode
from repro.sequence.fasta import read_fasta, write_fasta
from repro.sequence.homology import HomologyConfig, build_homology_graph

CLUSTER_2M = "cluster-2m"
CLUSTER_RMAT = "cluster-rmat"
PIPELINE = "pipeline"
NAMES = (CLUSTER_2M, CLUSTER_RMAT, PIPELINE)

#: Number of distinct relabellings a seed can select.
VARIANTS = 4

#: ``run_end_to_end``'s clustering parameters, passed explicitly so the
#: timed call, the traced composition and the oracle agree.
PIPELINE_PARAMS = ShinglingParams(c1=60, c2=30, seed=0)

#: Reporting filter for PPV/sensitivity: Table III's 20 on the planted
#: graph, ``run_end_to_end``'s default of 3 on the small sequence set.
QUALITY_MIN_SIZE = {CLUSTER_2M: 20, PIPELINE: 3}


def variant_of(seed: int) -> int:
    """The relabelling a benchmark seed selects."""
    return seed % VARIANTS


def cluster_params(name: str) -> ShinglingParams:
    """Shingling parameters of a workload's clustering call."""
    if name == CLUSTER_2M:
        return workload_params("small")
    if name == CLUSTER_RMAT:
        return WORKLOADS["large"].params("small")
    return PIPELINE_PARAMS


def device_spec(name: str) -> DeviceSpec | None:
    """Device of a workload's clustering call (``None``: the default K20)."""
    if name == CLUSTER_RMAT:
        return DeviceSpec(memory_capacity_bytes=64 * 2**20)
    return None


@dataclass
class Input:
    """A generated workload input plus what the harness checks it against."""

    name: str
    variant: int
    path: Path
    #: Planted ground truth per vertex, or ``None`` (R-MAT has none).
    truth: np.ndarray | None


def _permutation(n: int, name: str, variant: int) -> np.ndarray:
    salt = NAMES.index(name)
    return np.random.default_rng([salt, variant]).permutation(n)


def _relabel(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    return CSRGraph.from_edges(perm[graph.edges()], n_vertices=graph.n_vertices)


def make_input(name: str, variant: int, workdir: Path) -> Input:
    """Write the workload's input for ``variant`` into ``workdir``."""
    path = workdir / ("input.fasta" if name == PIPELINE else "input.npz")
    if name == PIPELINE:
        protein_set, _ = make_homology_workload("paper")
        perm = _permutation(protein_set.n_sequences, name, variant)
        order = np.argsort(perm)          # new position -> old id
        records = protein_set.as_fasta_records()
        write_fasta([records[i] for i in order], path)
        return Input(name, variant, path, protein_set.family_labels[order])
    if name == CLUSTER_2M:
        planted = make_runtime_workload("2m", "small")
        graph, truth = planted.graph, planted.family_labels
    else:
        graph, truth = make_large_workload("small"), None
    perm = _permutation(graph.n_vertices, name, variant)
    save_npz(_relabel(graph, perm), path)
    if truth is not None:
        relabelled = np.empty_like(truth)
        relabelled[perm] = truth
        truth = relabelled
    return Input(name, variant, path, truth)


def read_fasta_input(path: Path):
    """Encoded sequences and planted family labels of a FASTA input."""
    records = read_fasta(path)
    sequences = [encode(seq) for _, seq in records]
    families = np.array([int(header.split("family=")[1].split()[0])
                         for header, _ in records], dtype=np.int64)
    return sequences, families


def oracle(inp: Input) -> dict[str, np.ndarray]:
    """Reference outputs: serial-pClust labels, and host-aligned edges."""
    if inp.name == PIPELINE:
        sequences, _ = read_fasta_input(inp.path)
        homology = build_homology_graph(sequences,
                                        HomologyConfig(align_backend="host"))
        graph = homology.graph
        labels = SerialPClust(PIPELINE_PARAMS).run(graph).labels
        return {"labels": labels, "indptr": graph.indptr,
                "indices": graph.indices}
    graph = load_npz(inp.path)
    return {"labels": SerialPClust(cluster_params(inp.name)).run(graph).labels}
