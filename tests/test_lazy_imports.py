"""The root package resolves its subpackages and re-exports lazily."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def test_core_pipeline_import_skips_baselines_and_scipy():
    code = ("import sys, repro.core.pipeline; "
            "print(sorted(m for m in ('repro.baselines', 'scipy.sparse') "
            "if m in sys.modules))")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("name", repro.__all__)
def test_every_public_name_resolves(name):
    assert getattr(repro, name) is not None
    assert name in dir(repro)


def test_reexports_are_the_defining_objects():
    from repro.core import cluster_graph
    from repro.graph import CSRGraph
    assert repro.cluster_graph is cluster_graph
    assert repro.CSRGraph is CSRGraph


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        repro.no_such_name  # noqa: B018
