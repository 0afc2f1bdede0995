"""Integration tests: obs wired through device, homology, pipeline, CLI.

The central guarantees: observation never changes results (tracing on vs
off is bit-identical, including across process-pool workers), worker and
stream activity land on their own trace tracks, and the unified
``--profile`` document keeps every schema-version-1 key alive.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.params import ShinglingParams
from repro.core.pipeline import GpClust, SerialPClust
from repro.device.device import SimulatedDevice
from repro.graph.csr import CSRGraph
from repro.obs import observe, to_chrome_trace, use_obs, validate_chrome_trace
from repro.sequence.generator import SequenceFamilyConfig, generate_protein_families
from repro.sequence.homology import HomologyConfig, build_homology_graph
from repro.synthdata.planted import PlantedFamilyConfig, planted_family_graph


@pytest.fixture(scope="module")
def graph():
    return planted_family_graph(PlantedFamilyConfig(n_families=6),
                                seed=3).graph


@pytest.fixture(scope="module")
def protein_set():
    return generate_protein_families(
        SequenceFamilyConfig(n_families=5), seed=4)


class TestTracedClustering:
    def test_traced_run_matches_untraced(self, graph):
        params = ShinglingParams(c1=30, c2=15, seed=0)
        plain = GpClust(params).run(graph)
        with use_obs(observe()):
            traced = GpClust(params).run(graph)
        assert np.array_equal(plain.labels, traced.labels)

    def test_device_spans_cover_both_passes(self, graph):
        ctx = observe()
        with use_obs(ctx):
            GpClust(ShinglingParams(c1=20, c2=10, seed=0)).run(graph)
        names = {r.name for r in ctx.tracer.records}
        assert {"gpclust.run", "gpclust.pass1", "gpclust.pass2",
                "exec.shingle_pass", "phase3.report",
                "phase3.union"} <= names

    def test_root_span_reconciles_with_reported_wall_time(self, graph):
        # Trial counts sized so the run is long enough (~150ms) that the
        # fixed ~1ms of span/bucket accounting overhead sits well inside
        # the 5% tolerance — at c1=30 the same run measures 20-25ms and
        # the ratio hovers right on the boundary.
        ctx = observe()
        with use_obs(ctx):
            result = GpClust(ShinglingParams(c1=100, c2=50, seed=0)).run(graph)
        root = next(r for r in ctx.tracer.records if r.name == "gpclust.run")
        assert root.duration == pytest.approx(result.timings.total,
                                              rel=0.05)

    def test_multistream_spans_use_stream_tracks(self, graph):
        ctx = observe()
        params = ShinglingParams(c1=30, c2=15, seed=0,
                                 exec_mode="multistream", streams=2)
        with use_obs(ctx):
            GpClust(params).run(graph)
        tracks = {r.track for r in ctx.tracer.records}
        assert any(t.startswith("stream") for t in tracks)
        doc = to_chrome_trace(ctx.tracer.records, ctx.tracer.t0)
        validate_chrome_trace(doc)

    def test_serial_backend_traced(self, graph):
        ctx = observe()
        with use_obs(ctx):
            SerialPClust(ShinglingParams(c1=20, c2=10, seed=0)).run(graph)
        names = {r.name for r in ctx.tracer.records}
        assert {"serial_pclust.run", "serial.shingle_pass",
                "phase3.report"} <= names


class TestDeviceMetrics:
    def test_profile_keeps_v1_shape(self, graph):
        device = SimulatedDevice()
        GpClust(ShinglingParams(c1=20, c2=10, seed=0)).run(graph,
                                                           device=device)
        profile = device.profile()
        assert {"kernels", "transfers", "scratch_pool"} <= set(profile)
        assert all({"launches", "elements", "modeled_s"} <= set(stats)
                   for stats in profile["kernels"].values())
        assert profile["transfers"]["bytes_to_device"] > 0

    def test_registry_mirrors_device_counters(self, graph):
        ctx = observe()
        with use_obs(ctx):
            device = SimulatedDevice()
            GpClust(ShinglingParams(c1=20, c2=10, seed=0)).run(graph,
                                                               device=device)
            device.sync_metrics()
        snap = ctx.metrics.snapshot()
        launches = {name: value for name, value in snap["counters"].items()
                    if name.endswith(".launches")}
        assert sum(launches.values()) > 0
        profile = device.profile()
        total = sum(stats["launches"]
                    for stats in profile["kernels"].values())
        assert sum(launches.values()) == total
        assert (snap["gauges"]["device.h2d_bytes"]
                == profile["transfers"]["bytes_to_device"])

    def test_dedup_ratio_counters(self, graph):
        ctx = observe()
        with use_obs(ctx):
            GpClust(ShinglingParams(c1=20, c2=10, seed=0)).run(graph)
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["shingle.occurrence_slots"] > 0
        assert 0 < counters["shingle.distinct_fps"] <= \
            counters["shingle.occurrence_slots"]


class TestHomologyWorkerSpans:
    def test_pool_tracing_is_bit_identical(self, protein_set):
        """Tracing on vs off, serial vs pool: same graph, same scores."""
        config = HomologyConfig(n_jobs=2, chunk_size=16)
        plain = build_homology_graph(protein_set.sequences, config)
        with use_obs(observe()):
            traced = build_homology_graph(protein_set.sequences, config)
        assert np.array_equal(plain.graph.indptr, traced.graph.indptr)
        assert np.array_equal(plain.graph.indices, traced.graph.indices)
        assert np.array_equal(plain.normalized_scores,
                              traced.normalized_scores)

    def test_worker_spans_merge_onto_parent(self, protein_set):
        ctx = observe()
        with use_obs(ctx):
            build_homology_graph(
                protein_set.sequences,
                HomologyConfig(n_jobs=2, chunk_size=16,
                               align_backend="pool"))
        records = ctx.tracer.records
        shard_spans = [r for r in records
                       if r.name == "homology.align.shard"]
        assert shard_spans, "no worker shard spans absorbed"
        worker_procs = {r.proc for r in shard_spans}
        assert all(p.startswith("sw-worker-") for p in worker_procs)
        # Worker spans lie inside the parent's alignment stage: shared
        # monotonic clock, one timeline.
        alignment = next(r for r in records
                         if r.name == "homology.alignment")
        for span in shard_spans:
            assert alignment.start <= span.start
            assert span.end <= alignment.end + 1e-3
        doc = to_chrome_trace(records, ctx.tracer.t0)
        validate_chrome_trace(doc)

    def test_serial_path_emits_shard_spans_on_main(self, protein_set):
        ctx = observe()
        with use_obs(ctx):
            build_homology_graph(protein_set.sequences,
                                 HomologyConfig(n_jobs=1,
                                                align_backend="host"))
        shard_spans = [r for r in ctx.tracer.records
                       if r.name == "homology.align.shard"]
        assert shard_spans
        assert {r.proc for r in shard_spans} == {"main"}

    def test_timings_match_stage_spans(self, protein_set):
        ctx = observe()
        with use_obs(ctx):
            result = build_homology_graph(protein_set.sequences,
                                          HomologyConfig())
        by_name = {r.name: r for r in ctx.tracer.records}
        timings = result.timings
        assert timings.seed_filter_s == pytest.approx(
            by_name["homology.seed_filter"].duration)
        assert timings.alignment_s == pytest.approx(
            by_name["homology.alignment"].duration)

    def test_homology_counters(self, protein_set):
        ctx = observe()
        with use_obs(ctx):
            result = build_homology_graph(protein_set.sequences,
                                          HomologyConfig())
        counters = ctx.metrics.snapshot()["counters"]
        assert counters["homology.candidate_pairs"] == \
            result.n_candidate_pairs
        assert counters["homology.edges_kept"] == result.n_edges
        assert counters["homology.pairs_dropped"] == \
            result.n_candidate_pairs - result.n_edges


class TestEndToEndObs:
    def test_e2e_spans_and_rss_gauge(self):
        from repro.pipeline.end_to_end import run_end_to_end

        ctx = observe()
        with use_obs(ctx):
            run_end_to_end(
                sequence_config=SequenceFamilyConfig(n_families=4), seed=1)
        names = {r.name for r in ctx.tracer.records}
        assert {"e2e.run", "e2e.homology", "e2e.clustering",
                "e2e.quality"} <= names
        gauges = ctx.metrics.snapshot()["gauges"]
        assert gauges["process.peak_rss_bytes"] > 1 << 20
        assert gauges["process.children_peak_rss_bytes"] >= 0


class TestCliObs:
    @pytest.fixture(scope="class")
    def bench(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs_cli") / "bench"
        main(["generate", "--families", "5", "--seed", "2",
              "--out", str(path)])
        return path.with_suffix(".npz")

    def test_trace_flag_writes_valid_trace(self, bench, tmp_path, capsys):
        from repro.obs import load_trace

        trace_path = tmp_path / "trace.json"
        assert main(["cluster", str(bench), "--trace",
                     str(trace_path)]) == 0
        doc = load_trace(trace_path)
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert "gpclust.run" in names
        assert doc["otherData"]["command"] == "cluster"
        assert "metrics" in doc["otherData"]

    def test_trace_does_not_change_labels(self, bench, tmp_path, capsys):
        plain_out = tmp_path / "plain.npz"
        traced_out = tmp_path / "traced.npz"
        main(["cluster", str(bench), "--out", str(plain_out)])
        main(["cluster", str(bench), "--out", str(traced_out),
              "--trace", str(tmp_path / "t.json")])
        with np.load(plain_out) as a, np.load(traced_out) as b:
            assert np.array_equal(a["labels"], b["labels"])

    def test_metrics_out(self, bench, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["cluster", str(bench), "--metrics-out",
                     str(metrics_path)]) == 0
        snap = json.loads(metrics_path.read_text())
        assert snap["schema_version"] == 1
        assert snap["gauges"]["device.h2d_bytes"] > 0

    def test_profile_schema_v2_with_v1_aliases(self, bench, tmp_path,
                                               capsys):
        profile_path = tmp_path / "profile.json"
        assert main(["cluster", str(bench), "--profile",
                     str(profile_path)]) == 0
        doc = json.loads(profile_path.read_text())
        assert doc["schema_version"] == 2
        # v1 aliases stay at the top level...
        assert {"kernels", "transfers", "scratch_pool"} <= set(doc)
        # ...and mirror the canonical nested copy.
        assert doc["kernels"] == doc["device"]["kernels"]
        assert "metrics" in doc

    def test_obs_summary_command(self, bench, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(["cluster", str(bench), "--trace", str(trace_path)])
        capsys.readouterr()
        assert main(["obs", "summary", str(trace_path), "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "gpclust.run" in out
        assert "wall" in out

    def test_pipeline_profile_keeps_homology_key(self, tmp_path, capsys):
        fasta = tmp_path / "prot"
        main(["generate", "--families", "4", "--seed", "1", "--fasta",
              "--out", str(fasta)])
        profile_path = tmp_path / "profile.json"
        assert main(["pipeline", str(fasta.with_suffix(".fasta")),
                     "--profile", str(profile_path),
                     "--trace", str(tmp_path / "trace.json")]) == 0
        doc = json.loads(profile_path.read_text())
        assert doc["schema_version"] == 2
        assert {"homology", "device", "spans"} <= set(doc)
        assert doc["homology"]["total_s"] > 0


class TestFakeClockInjection:
    def test_stopwatch_uses_injected_clock(self):
        from repro.util.timer import Stopwatch, fake_clock

        ticks = iter(range(100))
        with fake_clock(lambda: float(next(ticks))):
            watch = Stopwatch()
            watch.start()
            assert watch.stop() == 1.0

    def test_tracer_defaults_to_injected_clock(self):
        from repro.obs import Tracer
        from repro.util.timer import fake_clock

        ticks = iter(range(100))
        with fake_clock(lambda: float(next(ticks))):
            tracer = Tracer()
            with tracer.span("step"):
                pass
        (record,) = tracer.records
        assert record.duration == 1.0

    def test_set_clock_restores(self):
        import time

        from repro.util.timer import clock, set_clock

        previous = set_clock(lambda: 42.0)
        try:
            assert clock() == 42.0
        finally:
            set_clock(previous)
        assert previous is time.perf_counter
