import numpy as np
import pytest

import randmon.lti
from randmon.config import UGV_DEFAULT_Q, UGV_DEFAULT_R
from randmon.lti import LtiPlant, UgvParams, discretize_ugv, make_controller, solve_dare


@pytest.fixture(scope="session")
def ugv_plant():
    return discretize_ugv(UgvParams(), 0.05, np.diag(UGV_DEFAULT_Q), np.diag(UGV_DEFAULT_R))


@pytest.fixture(scope="session")
def ugv_kss(ugv_plant):
    return solve_dare(ugv_plant)


@pytest.fixture(scope="session")
def ugv_gains(ugv_plant):
    return make_controller(ugv_plant)


@pytest.fixture(scope="session")
def stable_plant():
    # two-state plant with rho(A) < 1, used where the open loop must settle
    return LtiPlant(
        A=[[0.90, 0.05], [0.00, 0.80]],
        B=[[0.5], [1.0]],
        C=[[1.0, 0.0]],
        Q=np.diag([2e-4, 2e-4]),
        R=[[4e-4]],
        ts=1.0,
    )


@pytest.fixture(scope="session")
def stable_kss(stable_plant):
    return solve_dare(stable_plant)


@pytest.fixture(scope="session")
def stable_gains(stable_plant):
    return make_controller(stable_plant)


@pytest.fixture
def riccati_iterations(monkeypatch):
    """The inputs of every full Riccati iteration from here on, counted from an empty memo."""
    calls, iterate = [], randmon.lti._riccati_iterate
    monkeypatch.setattr(randmon.lti, "_riccati_solutions", {})
    monkeypatch.setattr(randmon.lti, "_riccati_iterate", lambda *a: calls.append(a) or iterate(*a))
    return calls
