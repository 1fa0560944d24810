"""The demos run end to end from a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cachenet import Catalog, build_demand, generate_power_law_topology, zipf_popularity

ROOT = Path(__file__).resolve().parents[1]
# 04_run_sweeps.py runs both full sweeps (about 23 s) and is left out
DEMOS = sorted((ROOT / "demos").glob("0[1-3]_*.py"))


def run_demo(demo, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_build_network_writes_interchange_files(tmp_path):
    """Demo 01 writes its 64-router topology as an edge list under a header,
    and its 200-object catalog and demand as CSV rows whose values
    round-trip through repr."""
    result = run_demo(ROOT / "demos" / "01_build_network.py", tmp_path)
    assert result.returncode == 0, result.stderr
    topo = generate_power_law_topology(64, 2, seed=7)
    catalog = Catalog(zipf_popularity(200, 0.8))
    demand = build_demand(topo, catalog)

    lines = (tmp_path / "topology.txt").read_text().splitlines()
    assert lines[0] == f"nodes 64 origin {topo.origin_attach} penalty 3"
    assert lines[1:] == [f"{u} {v}" for u, v in sorted(topo.edges)]
    assert len(lines) == 1 + 2 * 62 + 1

    cat_lines = (tmp_path / "catalog.csv").read_text().splitlines()
    assert cat_lines[0] == "object,popularity"
    assert len(cat_lines) == 1 + 200
    assert [float(line.split(",")[1]) for line in cat_lines[1:]] == catalog.popularity.tolist()

    dem_lines = (tmp_path / "demand.csv").read_text().splitlines()
    assert dem_lines[0] == "node,object,rate"
    assert len(dem_lines) == 1 + 64 * 200
    _, _, rate = dem_lines[1].split(",")
    assert float(rate) == demand.rates[0, 0]
