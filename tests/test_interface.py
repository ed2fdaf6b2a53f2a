"""What the benchmark harness reads from the package.

``perfbench/tracer.py`` wraps the public functions from outside and takes
its work counts from their arguments by position (falling back to a
keyword) and from their results. A reordered parameter or a renamed
result attribute makes a traced run fail its count hooks, so these
tests pin what the hooks index.
"""

import inspect

import numpy as np

import hesflex as hx
from hesflex import assets, data_io, market, oracle, simulation


def _params(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD]


def test_count_hooks_find_their_arguments():
    assert _params(simulation.simulate)[2] == "dp_request"
    assert _params(assets.pv_power_series)[1] == "irradiance_values"
    assert _params(market.group_by_season_hour)[0] == "timestamps"
    assert _params(data_io.export_trace)[:2] == ["traj", "path"]
    for reader in (data_io.read_signal_csv, data_io.read_irradiance_csv):
        assert _params(reader) == ["path"]
    assert _params(oracle.solve) == ["problem"]


def test_count_hooks_find_their_results(tmp_path):
    fleet = hx.build_fleet(hx.RunConfig())
    problem = oracle.OracleProblem(fleet, 6.5, np.array([0.5, -0.25, 1.0]), 2.0)
    assert problem.horizon == 3
    sol = oracle.solve(problem)
    assert sol.backend in ("tube-certificate", "exact-dp")
    assert sol.certified_optimal is True
    # export_trace's rows are len() of its trajectory, a reader's its values
    assert len(sol.records) == 3
    path = tmp_path / "signal.csv"
    path.write_text("timestamp,r\n0,0.5\n2,-0.25\n")
    assert len(data_io.read_signal_csv(path).values) == 2


def test_public_api_stays_small():
    assert len(hx.__all__) <= 49
    assert len(set(hx.__all__)) == len(hx.__all__)
