import numpy as np
import pytest

from hesflex import RunConfig, build_fleet, simulate
from hesflex.oracle import rule_objective, solve


@pytest.fixture
def fleet():
    """Reference fleet: 5 MW / 5 MWh battery, 3 MW PV, 3 MW load, 2 s step."""
    return build_fleet(RunConfig())


@pytest.fixture
def rng():
    return np.random.default_rng(20210101)


@pytest.fixture(scope="session")
def rule_and_oracle():
    """What ``track --oracle`` runs on an oracle instance: the rule-based
    dispatcher (guarded when a guard is given), its objective, and the
    oracle."""
    def run(problem, guard=None):
        traj = simulate(problem.fleet, problem.scenario, problem.targets(), problem.pv,
                        problem.soc0, guard=guard)
        return rule_objective(problem, traj), solve(problem)

    return run
