"""Cost models for the simulated device.

Measured wall time of the NumPy kernels is what the benchmarks report as
"GPU time" (it is the genuine cost of executing the data-parallel formulation
on this machine).  Alongside, a *modeled* time is accumulated from these cost
models so reports can also show what a K20-class device behind a PCIe-2.0
link would spend; the two are kept in separate buckets (see
:class:`repro.util.timer.TimeBreakdown`) and never mixed.

Defaults approximate the paper's platform: a Tesla K20 (208 GB/s device
memory bandwidth, 3.52 Tflop/s single precision) on PCIe 2.0 x16
(~6 GB/s effective, ~10 us launch/transfer latency).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TransferModel:
    """Latency + bandwidth model for host<->device copies."""

    latency_s: float = 10e-6
    bandwidth_bytes_per_s: float = 6.0e9

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be > 0")

    def seconds_for(self, nbytes: int) -> float:
        """Modeled seconds to move ``nbytes`` across the link."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self.latency_s + nbytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class KernelCostModel:
    """Throughput model for device kernels, in elements per second.

    ``transform`` covers the elementwise hash map; ``sort`` the segmented
    sort (Thrust radix-sort class throughput); ``select`` the segmented
    top-s selection; ``reduce`` fingerprint folding and similar O(n) passes.
    The alignment wavefront is charged as a ``transform`` over its padded
    DP cells.

    The inter-pass aggregation and Phase III offloads add their own classes:
    ``agg_sort`` (merging already-sorted fingerprint runs — cheaper than a
    from-scratch radix sort), ``agg_boundaries`` (run-boundary flags plus the
    inverse scatter, a scan-class pass), ``agg_invert`` (the generator-list
    re-key + sort + dedup group-by), ``cc_hook`` (atomic-min edge scatter of
    one hooking round) and ``cc_jump`` (the ``labels[labels]`` gather of one
    pointer-jumping round).

    **Launch-latency charging rule** (the PR 10 double-charge audit):
    ``launch_latency_s`` models the *per-launch* host dispatch cost, so

    * an **eager** kernel launch charges it once per launch —
      :meth:`seconds_for` = latency + rate term.  A fused eager step that
      stands for ``k`` physical launches (e.g. the unfused hash+pack
      transform pair) must charge ``k * seconds_for(...)``, i.e. ``k``
      latencies, and record ``k`` launches;
    * a **replayed launch graph** charges it once per *graph*, not once per
      node: the whole captured DAG goes through one host dispatch, exactly
      like a CUDA graph launch.  Replay node costs therefore use
      :meth:`rate_seconds_for`, with the single latency charge folded into
      the graph's first node (see ``repro.device.launchgraph``).
    """

    launch_latency_s: float = 5e-6
    transform_eps: float = 40e9
    sort_eps: float = 1.0e9
    select_eps: float = 8e9
    reduce_eps: float = 20e9
    agg_sort_eps: float = 1.2e9
    agg_scan_eps: float = 10e9
    agg_invert_eps: float = 1.5e9
    cc_hook_eps: float = 2.0e9
    cc_jump_eps: float = 8.0e9

    def _rates(self) -> dict[str, float]:
        rates = self.__dict__.get("_rates_cache")
        if rates is None:
            rates = {
                "transform": self.transform_eps,
                "sort": self.sort_eps,
                "select": self.select_eps,
                "reduce": self.reduce_eps,
                "agg_sort": self.agg_sort_eps,
                "agg_boundaries": self.agg_scan_eps,
                "agg_invert": self.agg_invert_eps,
                "cc_hook": self.cc_hook_eps,
                "cc_jump": self.cc_jump_eps,
            }
            object.__setattr__(self, "_rates_cache", rates)
        return rates

    def rate_seconds_for(self, kernel: str, n_elements: int) -> float:
        """The pure throughput term — NO launch latency.

        This is the per-node cost inside a replayed launch graph (the graph
        charges ``launch_latency_s`` exactly once; see the class docstring's
        charging rule).
        """
        rates = self._rates()
        if kernel not in rates:
            raise ValueError(f"unknown kernel class {kernel!r}")
        if n_elements < 0:
            raise ValueError("n_elements must be >= 0")
        return n_elements / rates[kernel]

    def seconds_for(self, kernel: str, n_elements: int) -> float:
        """Modeled seconds for one *eager* launch: latency + rate term."""
        return self.launch_latency_s + self.rate_seconds_for(kernel, n_elements)


@dataclass(frozen=True)
class DeviceSpec:
    """Full device description: memory capacity plus the cost models.

    The default 5 GiB matches the K20's per-board memory, but benchmarks use
    much smaller capacities to force multi-batch execution at laptop scale
    (the paper's 2M graph vs. 5 GB forces the same batching).
    """

    memory_capacity_bytes: int = 5 * 2**30
    transfer: TransferModel = field(default_factory=TransferModel)
    kernels: KernelCostModel = field(default_factory=KernelCostModel)
    name: str = "sim-k20"

    def __post_init__(self) -> None:
        if self.memory_capacity_bytes <= 0:
            raise ValueError("memory capacity must be > 0")
