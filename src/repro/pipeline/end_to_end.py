"""End-to-end pipeline: sequences -> homology graph -> clusters -> quality.

This is the full pGraph-pClust analogue in one call, used by the examples
and the integration tests: generate (or accept) a protein set, build the
similarity graph with the sequence substrate, cluster it with gpClust, and
score the result against the family ground truth.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust
from repro.core.result import ClusterResult
from repro.device.timingmodels import DeviceSpec
from repro.eval.confusion import QualityScores, quality_scores
from repro.eval.density import density_summary
from repro.eval.partition import Partition
from repro.obs import get_obs, peak_rss_bytes
from repro.sequence.generator import SequenceFamilyConfig, SyntheticProteinSet, generate_protein_families
from repro.sequence.homology import HomologyConfig, HomologyResult, build_homology_graph


@dataclass
class EndToEndReport:
    """Everything one pipeline run produced."""

    protein_set: SyntheticProteinSet
    homology: HomologyResult
    clustering: ClusterResult
    quality: QualityScores
    density_mean: float
    density_std: float

    def summary(self) -> dict:
        out = {
            "n_sequences": self.protein_set.n_sequences,
            "n_candidate_pairs": self.homology.n_candidate_pairs,
            "n_edges": self.homology.n_edges,
            "n_clusters(>=2)": self.clustering.n_clusters(min_size=2),
            "ppv": self.quality.ppv,
            "sensitivity": self.quality.sensitivity,
            "density": self.density_mean,
            "seconds": self.clustering.timings.total,
        }
        if self.homology.timings is not None:
            out["homology_seconds"] = self.homology.timings.total_s
        return out


def run_end_to_end(
    protein_set: SyntheticProteinSet | None = None,
    sequence_config: SequenceFamilyConfig | None = None,
    homology_config: HomologyConfig | None = None,
    params: ShinglingParams | None = None,
    device_spec: DeviceSpec | None = None,
    min_cluster_size: int = 3,
    seed: int = 0,
    n_jobs: int | None = None,
    align_backend: str | None = None,
    devices: int | None = None,
) -> EndToEndReport:
    """Run the full pipeline; every stage is replaceable via its config.

    ``min_cluster_size`` is the reporting filter for quality scoring — the
    paper uses 20 on its 2M-sequence data; synthetic sets here are smaller,
    so the default is 3.  ``n_jobs`` / ``align_backend`` / ``devices``
    (when given) override the homology config's alignment worker count,
    scoring backend, and simulated device count — ``devices`` also applies
    to the clustering params, so both stages run on a group of that size;
    the result is identical either way.
    """
    if protein_set is None:
        protein_set = generate_protein_families(sequence_config, seed=seed)
    if params is None:
        params = ShinglingParams(c1=60, c2=30, seed=seed)
    if devices is not None:
        params = dataclasses.replace(params, devices=devices)
    overrides = {}
    if n_jobs is not None:
        overrides["n_jobs"] = n_jobs
    if align_backend is not None:
        overrides["align_backend"] = align_backend
    if devices is not None:
        overrides["devices"] = devices
    if overrides:
        homology_config = dataclasses.replace(
            homology_config or HomologyConfig(), **overrides)

    obs = get_obs()
    tracer = obs.tracer
    t_start = tracer.clock() if tracer.enabled else 0.0

    with tracer.span("e2e.homology"):
        homology = build_homology_graph(protein_set.sequences,
                                        homology_config)
    with tracer.span("e2e.clustering"):
        clustering = GpClust(params, device_spec).run(homology.graph)

    with tracer.span("e2e.quality"):
        test = Partition(clustering.labels)
        benchmark = Partition(protein_set.family_labels)
        quality = quality_scores(test, benchmark, min_size=min_cluster_size)
        dens_mean, dens_std = density_summary(homology.graph, test,
                                              min_size=min_cluster_size)

    obs.metrics.gauge("process.peak_rss_bytes").set_max(peak_rss_bytes())
    obs.metrics.gauge("process.children_peak_rss_bytes").set_max(
        peak_rss_bytes(children=True))
    if tracer.enabled:
        tracer.record("e2e.run", t_start, tracer.clock(),
                      attrs={"n_sequences": protein_set.n_sequences,
                             "n_edges": homology.n_edges})

    return EndToEndReport(
        protein_set=protein_set,
        homology=homology,
        clustering=clustering,
        quality=quality,
        density_mean=dens_mean,
        density_std=dens_std,
    )
