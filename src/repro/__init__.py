"""repro — reproduction of "GPU-Accelerated Protein Family Identification
for Metagenomics" (Wu & Kalyanaraman, IPDPSW 2013).

The package implements the paper's gpClust system and every substrate it
depends on:

* :mod:`repro.core` — the two-pass Shingling clustering heuristic, serial
  and device-backed;
* :mod:`repro.device` — the simulated GPU (memory, transfers, kernels,
  batching);
* :mod:`repro.graph` — CSR graphs, union-find, connected components, stats;
* :mod:`repro.synthdata` — planted-family benchmark graph generation;
* :mod:`repro.sequence` — protein sequences, Smith-Waterman, homology graph
  construction (the pGraph analogue);
* :mod:`repro.baselines` — the GOS k-neighbor comparator and friends;
* :mod:`repro.eval` — pair-counting quality metrics, density, distributions;
* :mod:`repro.pipeline` — end-to-end workloads used by the benchmarks.

Quickstart::

    import repro
    graph = repro.synthdata.planted_family_graph(
        repro.synthdata.PlantedFamilyConfig(n_families=30), seed=1).graph
    result = repro.cluster_graph(graph, repro.ShinglingParams(c1=40, c2=20))
    print(result.summary())
"""

import importlib

#: Subpackages and re-exports resolve on first attribute access (PEP 562),
#: so importing one module (``repro.core.pipeline``) does not import every
#: subpackage — nor their dependencies, such as ``scipy.sparse``.
_SUBPACKAGES = ("baselines", "eval", "pipeline", "sequence", "synthdata")
_EXPORTS = {
    "ClusterResult": "repro.core",
    "GpClust": "repro.core",
    "SerialPClust": "repro.core",
    "ShinglingParams": "repro.core",
    "cluster_by_components": "repro.core",
    "cluster_graph": "repro.core",
    "DeviceSpec": "repro.device",
    "SimulatedDevice": "repro.device",
    "CSRGraph": "repro.graph",
}

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "ClusterResult",
    "DeviceSpec",
    "GpClust",
    "SerialPClust",
    "ShinglingParams",
    "SimulatedDevice",
    "baselines",
    "cluster_by_components",
    "cluster_graph",
    "eval",
    "pipeline",
    "sequence",
    "synthdata",
    "__version__",
]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        value = importlib.import_module(f"repro.{name}")
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
    else:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
