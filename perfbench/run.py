"""gpClust benchmark: cold-process wall time, checked against the serial oracle.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {cluster-2m|cluster-rmat|pipeline} \\
        --seed N --seconds S --trace {0|1}

One process (this one) generates the workload's input from ``--seed``,
then, for at least ``--seconds`` seconds, starts ``child.py`` one process at
a time (a closed loop with one client).  Each child makes exactly one call
into the program, so every sample is a cold first call.  With ``--trace 0``
the child times the public entry point and the run reports the end-to-end
metrics; with ``--trace 1`` one reference child runs the entry point and
the others compose its layer calls, each timed from outside, giving the
per-layer metrics.  Timings are medians over the samples.

Every sample is checked: labels must equal serial pClust's, and pipeline
edges must equal the host aligner's.  The oracle is computed after the
timed samples and cached under ``.perfbench_cache/`` keyed by workload,
input variant and a digest of the code.  Counts (pairs, edges, shingles,
batches, kernel launches and elements, bytes) must repeat exactly across
samples and across runs of the same code; the traced composition must
reproduce the entry point's output bit for bit.  A sample that raises or
breaks any of these counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
CHILD = HERE / "child.py"

MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150

#: Count keys whose value must agree between an entry-point sample and a
#: traced sample of the same input.
SHARED_COUNTS = ("pass1_shingles", "pass2_shingles", "candidate_pairs",
                 "edges")

BUSY_LAYERS = ("kmer_filter", "self_scores", "alignment", "csr_build", "eval",
               "pass1", "pass2_input", "pass2", "phase3")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def code_digest(*files: Path) -> str:
    """SHA-256 over the program's sources and the given benchmark files."""
    h = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*.py")
                   if "__pycache__" not in p.parts) + sorted(files)
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _write_atomic(path: Path, write) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    write(tmp)
    os.replace(tmp, path)


class Sample:
    """One child process: its record, output arrays and verdict."""

    def __init__(self, mode: str, record: dict | None, arrays: dict | None,
                 error: str | None) -> None:
        self.mode = mode
        self.record = record
        self.arrays = arrays
        self.errors = [error] if error else []

    @property
    def ok(self) -> bool:
        return not self.errors


def run_child(mode: str, name: str, input_path: Path, workdir: Path,
              index: int, env: dict) -> Sample:
    import numpy as np

    out = workdir / f"out-{index}.npz"
    t_spawn = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode, name, str(input_path),
             str(out), repr(t_spawn)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Sample(mode, None, None, f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return Sample(mode, None, None,
                      f"exit {proc.returncode}: {tail[0]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    with np.load(out) as data:
        arrays = {k: data[k] for k in data.files}
    out.unlink()
    return Sample(mode, record, arrays, None)


def collect(name: str, input_path: Path, workdir: Path, seconds: float,
            trace: bool) -> list[Sample]:
    """Start children one at a time until ``seconds`` have passed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    samples = []
    if trace:
        samples.append(run_child("e2e", name, input_path, workdir, 0, env))
    mode = "traced" if trace else "e2e"
    t0 = time.perf_counter()
    while (len(samples) < MIN_SAMPLES + int(trace)
           or time.perf_counter() - t0 < seconds):
        samples.append(run_child(mode, name, input_path, workdir,
                                 len(samples), env))
    return samples


def load_oracle(inp, digest: str) -> dict:
    import numpy as np

    import workloads as wl

    path = CACHE / f"oracle-{inp.name}-v{inp.variant}-{digest}.npz"
    if path.exists():
        with np.load(path) as data:
            return {k: data[k] for k in data.files}
    arrays = wl.oracle(inp)

    def write(tmp):
        with tmp.open("wb") as f:
            np.savez(f, **arrays)
    _write_atomic(path, write)
    return arrays


def check_outputs(samples: list[Sample], oracle: dict) -> None:
    import numpy as np

    for s in samples:
        if not s.ok:
            continue
        for key, expected in oracle.items():
            got = s.arrays.get(key)
            if got is None or not np.array_equal(got, expected):
                s.errors.append(f"{key} differ from the oracle")


def check_traced_guard(samples: list[Sample]) -> None:
    """Traced outputs and shared counts must equal the entry point's."""
    import numpy as np

    ref = samples[0]
    for s in samples[1:]:
        if not (s.ok and ref.ok):
            continue
        for key, expected in ref.arrays.items():
            if not np.array_equal(s.arrays[key], expected):
                s.errors.append(f"traced {key} differ from the entry point's")
        for key in SHARED_COUNTS:
            if (key in ref.record["counts"]
                    and s.record["counts"].get(key) != ref.record["counts"][key]):
                s.errors.append(f"traced count {key} differs from the "
                                "entry point's")


def check_determinism(samples: list[Sample], record_path: Path) -> None:
    """Counts repeat across samples of a mode and across runs of the code."""
    stored = (json.loads(record_path.read_text()) if record_path.exists()
              else {})
    known = set(stored)
    for s in samples:
        if not s.ok:
            continue
        counts = stored.setdefault(s.mode, s.record["counts"])
        if s.record["counts"] != counts:
            diff = sorted(k for k in set(counts) | set(s.record["counts"])
                          if counts.get(k) != s.record["counts"].get(k))
            msg = f"NONDETERMINISTIC counts {diff} ({s.mode} sample)"
            print(msg, file=sys.stderr)
            s.errors.append(msg)
    if set(stored) != known:
        _write_atomic(record_path,
                      lambda tmp: tmp.write_text(json.dumps(stored, indent=1)))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def e2e_metrics(name: str, inp, samples: list[Sample], oracle: dict) -> dict:
    import workloads as wl
    from repro.eval.confusion import quality_scores
    from repro.eval.partition import Partition

    good = [s.record for s in samples if s.ok] or [
        s.record for s in samples if s.record]
    if name == wl.PIPELINE:
        ppv = _median(r["ppv"] for r in good)
        sensitivity = _median(r["sensitivity"] for r in good)
    else:
        # R-MAT plants no families: score against the oracle's partition,
        # which is 1.0 exactly when the labels are bit-identical.
        labels = next((s.arrays["labels"] for s in samples if s.ok),
                      oracle["labels"])
        truth = inp.truth if inp.truth is not None else oracle["labels"]
        q = quality_scores(Partition(labels), Partition(truth),
                           min_size=wl.QUALITY_MIN_SIZE.get(name))
        ppv, sensitivity = q.ppv, q.sensitivity
    return {
        "wall_s": (_median(r["wall_s"] for r in good), "s"),
        "setup_s": (_median(r["setup_s"] for r in good), "s"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in good), "MB"),
        "ppv": (ppv, "ratio"),
        "sensitivity": (sensitivity, "ratio"),
    }


def layer_metrics(samples: list[Sample]) -> dict:
    traced = [s.record for s in samples[1:] if s.ok] or [
        s.record for s in samples[1:] if s.record]
    if not traced:
        return {}
    counts = traced[0]["counts"]

    def busy(layer):
        return _median(r["layers"].get(layer, 0.0) for r in traced)

    def count(key):
        return counts.get(key, 0)

    out = {f"{layer}.busy_s": (busy(layer), "s") for layer in BUSY_LAYERS}
    align_s = busy("alignment")
    out.update({
        "io.load_s": (busy("io.load"), "s"),
        "kmer_filter.candidate_pairs": (count("candidate_pairs"), "count"),
        "alignment.dp_cells": (count("dp_cells"), "count"),
        "alignment.cells_per_s": (
            count("dp_cells") / align_s if align_s else 0.0, "1/s"),
        "alignment.edge_yield": (
            count("edges") / count("candidate_pairs")
            if count("candidate_pairs") else 0.0, "ratio"),
        "pass1.batches": (count("pass1_batches"), "count"),
        "pass1.segments": (count("pass1_segments"), "count"),
        "pass1.shingles": (count("pass1_shingles"), "count"),
        "pass2.elements": (count("pass2_elements"), "count"),
        "pass2.shingles": (count("pass2_shingles"), "count"),
        "pass2.dedup_ratio": (
            count("pass2_shingles") / count("pass2_slots")
            if count("pass2_slots") else 0.0, "ratio"),
        "phase3.clusters": (count("phase3_clusters"), "count"),
        "trace.unattributed_s": (_median(
            r["wall_s"] - sum(r["layers"].values()) for r in traced), "s"),
    })
    out.update({key: (value, "bytes" if key.endswith("_bytes") else "count")
                for key, value in counts.items() if key.startswith("device.")})
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads as wl

    if args.workload not in wl.NAMES:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(wl.NAMES)}", file=sys.stderr)
        return 2

    variant = wl.variant_of(args.seed)
    # The oracle depends on the program and the inputs; the counts also
    # on how the child counts them.
    oracle_digest = code_digest(HERE / "workloads.py")
    digest = code_digest(*HERE.glob("*.py"))
    CACHE.mkdir(exist_ok=True)
    workdir = CACHE / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        inp = wl.make_input(args.workload, variant, workdir)
        samples = collect(args.workload, inp.path, workdir, args.seconds,
                          bool(args.trace))
        oracle = load_oracle(inp, oracle_digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_outputs(samples, oracle)
    if args.trace:
        check_traced_guard(samples)
    check_determinism(
        samples, CACHE / f"counts-{args.workload}-v{variant}-{digest}.json")

    metrics = (layer_metrics(samples) if args.trace
               else e2e_metrics(args.workload, inp, samples, oracle))
    failed = sum(not s.ok for s in samples)
    backends = Counter(s.record.get("align_backend") for s in samples
                       if s.record and s.record.get("align_backend"))
    tags = {"workload": args.workload, "seed": args.seed, "variant": variant,
            "trace": args.trace, "samples": len(samples),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "code_digest": digest,
            "align_backends": dict(backends)}
    print("tags " + json.dumps(tags))
    for s in samples:
        if not s.ok:
            print(f"FAILED {s.mode} sample: {'; '.join(s.errors)}",
                  file=sys.stderr)
    for key in ("wall_s", "setup_s"):
        print(f"samples {key}: " + " ".join(
            f"{s.record[key]:.3f}" for s in samples if s.record))
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
