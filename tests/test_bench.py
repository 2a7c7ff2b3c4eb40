"""bench.py's scaling summary, from canned per-attempt results (no
subprocess is spawned)."""

from __future__ import annotations

from bench import scaling_summary


def _res(eps, build, wall):
    return {
        "ppr_edges_per_sec": eps,
        "queries": {"graph_build": build},
        "value": wall,
        "sf": 0.1,
        "n_edge_records": 10,
        "n_vertices": 5,
    }


def test_scaling_summary_reports_attempts_and_composite():
    attempts = {
        2: [_res(100.0, 8.0, 20.0), _res(120.0, 10.0, 16.0)],
        8: [_res(400.0, 2.0, 5.0), _res(360.0, 4.0, 4.0)],
    }
    out = scaling_summary((2, 8), attempts, dense=False)
    assert out["input"] == "flagship"
    assert scaling_summary((2, 8), attempts, dense=True)["input"] == "dense"
    # each round's own lo/hi pair
    assert out["attempt_efficiencies"] == [
        {"ppr": 1.0, "build": 1.0, "wall": 1.0},
        {"ppr": 0.75, "build": 0.625, "wall": 1.0},
    ]
    # best-of per metric: ppr 400/120, build 8/2, wall 16/4 — a
    # composite that no single round reached
    assert out["ppr_scaling_efficiency"] == round((400 / 120) / 4, 3)
    assert out["build_scaling_efficiency"] == 1.0
    assert out["wall_scaling_efficiency"] == 1.0
    assert out["levels"]["2"] == {"sec": 16.0, "ppr_edges_per_sec": 120.0, "graph_build_sec": 8.0}
    assert out["levels"]["8"] == {"sec": 4.0, "ppr_edges_per_sec": 400.0, "graph_build_sec": 2.0}
    assert out["ppr_eps_attempts"] == {"2": [0.0, 0.0], "8": [0.0, 0.0]}
    assert (out["sf"], out["n_edge_records"], out["n_vertices"]) == (0.1, 10, 5)
