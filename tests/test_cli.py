"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graph.io import load_npz


@pytest.fixture
def bench_files(tmp_path):
    """Generated benchmark graph + ground truth via the CLI itself."""
    stem = tmp_path / "bench"
    assert main(["generate", "--families", "6", "--seed", "3",
                 "--out", str(stem)]) == 0
    return stem


class TestGenerate:
    def test_graph_outputs(self, bench_files, tmp_path):
        graph = load_npz(bench_files.with_suffix(".npz"))
        gos = load_npz(bench_files.with_suffix(".gos.npz"))
        assert graph.n_vertices == gos.n_vertices
        assert gos.n_edges > graph.n_edges
        with np.load(bench_files.with_suffix(".labels.npz")) as data:
            assert data["labels"].size == graph.n_vertices

    def test_fasta_output(self, tmp_path):
        stem = tmp_path / "seqs"
        assert main(["generate", "--families", "4", "--fasta",
                     "--out", str(stem)]) == 0
        text = stem.with_suffix(".fasta").read_text()
        assert text.startswith(">")
        assert "family=0" in text


class TestCluster:
    def test_cluster_writes_labels(self, bench_files, tmp_path, capsys):
        out = tmp_path / "labels.npz"
        assert main(["cluster", str(bench_files.with_suffix(".npz")),
                     "--out", str(out), "--c1", "20", "--c2", "10"]) == 0
        with np.load(out) as data:
            labels = data["labels"]
        graph = load_npz(bench_files.with_suffix(".npz"))
        assert labels.size == graph.n_vertices
        captured = capsys.readouterr().out
        assert "clustering summary" in captured
        assert "component breakdown" in captured

    def test_serial_backend(self, bench_files, tmp_path):
        out_d = tmp_path / "d.npz"
        out_s = tmp_path / "s.npz"
        graph_path = str(bench_files.with_suffix(".npz"))
        main(["cluster", graph_path, "--out", str(out_d),
              "--c1", "10", "--c2", "5"])
        main(["cluster", graph_path, "--out", str(out_s),
              "--c1", "10", "--c2", "5", "--backend", "serial"])
        with np.load(out_d) as a, np.load(out_s) as b:
            assert np.array_equal(a["labels"], b["labels"])


class TestStats:
    def test_prints_table(self, bench_files, capsys):
        assert main(["stats", str(bench_files.with_suffix(".npz"))]) == 0
        out = capsys.readouterr().out
        assert "# Vertices" in out
        assert "singleton vertices excluded" in out


class TestCompare:
    def test_compare_with_clustering(self, bench_files, capsys):
        assert main(["compare", str(bench_files.with_suffix(".npz")),
                     "--benchmark", str(bench_files.with_suffix(".labels.npz")),
                     "--c1", "20", "--c2", "10", "--min-size", "10"]) == 0
        out = capsys.readouterr().out
        assert "PPV" in out and "Sensitivity" in out

    def test_compare_with_precomputed_labels(self, bench_files, tmp_path, capsys):
        labels_path = tmp_path / "labels.npz"
        main(["cluster", str(bench_files.with_suffix(".npz")),
              "--out", str(labels_path), "--c1", "20", "--c2", "10"])
        capsys.readouterr()
        assert main(["compare", str(bench_files.with_suffix(".npz")),
                     "--benchmark", str(bench_files.with_suffix(".labels.npz")),
                     "--labels", str(labels_path), "--min-size", "10"]) == 0
        assert "Density" in capsys.readouterr().out


class TestPipeline:
    def test_fasta_to_clusters(self, tmp_path, capsys):
        stem = tmp_path / "seqs"
        main(["generate", "--families", "4", "--fasta", "--seed", "2",
              "--out", str(stem)])
        capsys.readouterr()
        out_labels = tmp_path / "labels.npz"
        assert main(["pipeline", str(stem.with_suffix(".fasta")),
                     "--c1", "15", "--c2", "8",
                     "--out", str(out_labels)]) == 0
        out = capsys.readouterr().out
        assert "homology:" in out
        assert "clusters of size" in out
        assert out_labels.exists()

    def test_suffix_filter_mode(self, tmp_path, capsys):
        stem = tmp_path / "seqs"
        main(["generate", "--families", "3", "--fasta", "--seed", "4",
              "--out", str(stem)])
        capsys.readouterr()
        assert main(["pipeline", str(stem.with_suffix(".fasta")),
                     "--pair-filter", "suffix", "--c1", "10", "--c2",
                     "5"]) == 0
        assert "clusters" in capsys.readouterr().out


class TestPipelineResidues:
    def test_reports_residues_mapped_to_x(self, tmp_path, capsys):
        stem = tmp_path / "seqs"
        main(["generate", "--families", "3", "--fasta", "--seed", "4",
              "--out", str(stem)])
        path = stem.with_suffix(".fasta")
        lines = path.read_text().splitlines()
        # Ambiguity codes and an X in the first record, a stop codon at
        # the end of the second.
        lines[1] = "BZJ" + lines[1][3:-2] + "xo"
        headers = [i for i, line in enumerate(lines) if line.startswith(">")]
        lines[headers[2] - 1] += "*"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["pipeline", str(path), "--c1", "10", "--c2", "5"]) == 0
        err = capsys.readouterr().err
        assert "repro pipeline: 5 residues mapped to X" in err.splitlines()

    def test_profile_reports_band_stage(self, tmp_path, capsys):
        stem = tmp_path / "seqs"
        main(["generate", "--families", "3", "--fasta", "--seed", "4",
              "--out", str(stem)])
        profile = tmp_path / "profile.json"
        assert main(["pipeline", str(stem.with_suffix(".fasta")),
                     "--c1", "10", "--c2", "5", "--profile",
                     str(profile)]) == 0
        homology = json.loads(profile.read_text())["homology"]
        assert homology["band_s"] > 0
        assert homology["total_s"] == pytest.approx(
            sum(v for k, v in homology.items() if k != "total_s"))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_kernel_choice_validated(self, bench_files):
        with pytest.raises(SystemExit):
            main(["cluster", str(bench_files.with_suffix(".npz")),
                  "--kernel", "bubble"])


class TestProfileFlag:
    def test_profile_to_stdout(self, bench_files, capsys):
        import json

        assert main(["cluster", str(bench_files.with_suffix(".npz")),
                     "--c1", "10", "--c2", "5", "--profile"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        end = out.rindex("}") + 1
        prof = json.loads(out[start:end])
        assert "kernels" in prof and "transfers" in prof
        assert "scratch_pool" in prof
        assert any(v["launches"] > 0 for v in prof["kernels"].values())

    def test_profile_to_file(self, bench_files, tmp_path):
        import json

        path = tmp_path / "profile.json"
        assert main(["cluster", str(bench_files.with_suffix(".npz")),
                     "--c1", "10", "--c2", "5", "--profile", str(path)]) == 0
        prof = json.loads(path.read_text())
        assert prof["transfers"]["bytes_to_host"] > 0

    def test_kernel_fused_accepted(self, bench_files, tmp_path):
        out_f = tmp_path / "f.npz"
        out_s = tmp_path / "s.npz"
        graph_path = str(bench_files.with_suffix(".npz"))
        assert main(["cluster", graph_path, "--out", str(out_f),
                     "--c1", "10", "--c2", "5", "--kernel", "fused"]) == 0
        assert main(["cluster", graph_path, "--out", str(out_s),
                     "--c1", "10", "--c2", "5", "--kernel", "select"]) == 0
        with np.load(out_f) as a, np.load(out_s) as b:
            assert np.array_equal(a["labels"], b["labels"])


class TestBadInput:
    """Bad parameters and missing inputs end in one line and exit code 2."""

    BAD_PARAMS = [["--c1", "0"],
                  ["--streams", "0", "--exec-mode", "multistream"],
                  ["--devices", "0"]]

    def _assert_one_line_error(self, capsys, code):
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", BAD_PARAMS)
    def test_cluster_bad_params(self, bench_files, capsys, args):
        capsys.readouterr()
        code = main(["cluster", str(bench_files.with_suffix(".npz"))] + args)
        self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("args", BAD_PARAMS)
    def test_pipeline_bad_params(self, tmp_path, capsys, args):
        stem = tmp_path / "seqs"
        main(["generate", "--families", "3", "--fasta", "--out", str(stem)])
        capsys.readouterr()
        code = main(["pipeline", str(stem.with_suffix(".fasta"))] + args)
        self._assert_one_line_error(capsys, code)

    def test_cluster_missing_graph(self, tmp_path, capsys):
        code = main(["cluster", str(tmp_path / "absent.npz")])
        self._assert_one_line_error(capsys, code)

    def test_pipeline_missing_fasta(self, tmp_path, capsys):
        code = main(["pipeline", str(tmp_path / "absent.fasta")])
        self._assert_one_line_error(capsys, code)

    def test_pipeline_invalid_homology_config(self, tmp_path, capsys,
                                              monkeypatch):
        # No flag sets the gap penalty; a config that rejects it must still
        # reach the user as one line through cli.main.
        import functools

        from repro.sequence import homology

        stem = tmp_path / "seqs"
        main(["generate", "--families", "3", "--fasta", "--out", str(stem)])
        capsys.readouterr()
        monkeypatch.setattr(homology, "HomologyConfig", functools.partial(
            homology.HomologyConfig, gap=-3))
        code = main(["pipeline", str(stem.with_suffix(".fasta"))])
        self._assert_one_line_error(capsys, code)

    @pytest.mark.parametrize("text,line", [
        (">s0\nACDE1GHIK\n", 2),
        (">s0\nACDEFGHIK\n>s1\nWYV-ACD\n", 4),
        (">s0\nACD*\nEFG\n", 2),
    ])
    def test_pipeline_invalid_residue(self, tmp_path, capsys, text, line):
        path = tmp_path / "bad.fasta"
        path.write_text(text)
        code = main(["pipeline", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and f"line {line}:" in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text,match", [
        (">s0\nACDEFGHIK\n>s1\n>s2\nWYVACD\n", "line 3"),
        (">s0 a\nACDEFGHIK\n>s0 b\nWYVACD\n", "line 3"),
    ])
    def test_pipeline_malformed_fasta(self, tmp_path, capsys, text, match):
        path = tmp_path / "bad.fasta"
        path.write_text(text)
        code = main(["pipeline", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and match in err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
