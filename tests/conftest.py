import json
import os

import numpy as np
import pytest

from gridstorm.model import load_grid_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def load_config_doc(name):
    with open(config_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def default_grid():
    return load_grid_config(load_config_doc("default_grid.json"))


@pytest.fixture(scope="session")
def toy_grid():
    return load_grid_config(load_config_doc("toy_grid.json"))


@pytest.fixture(scope="session")
def toy_grid_noiseless():
    doc = load_config_doc("toy_grid.json")
    doc["noise_enabled"] = False
    doc["thresholds"] = [0.01]
    return load_grid_config(doc)


def make_plain_grid(n=1, thresholds=None, m=None, mcol=0.25, sched=None,
                    q_diag=(1e-6, 1e-6, 1e-6, 1e-6), r_diag=(1e-6, 1e-6),
                    inertia=5.0, regulation=1.0, noise_enabled=False):
    """Small synthetic grid for unit tests: mild dynamics, explicit thresholds."""
    from gridstorm.model import (C_OUT, AgcParams, GridModel, LoadMap, SafetyEnvelope,
                                 build_continuous, design_kalman_gain, discretize_zoh)

    m = m or n
    params = AgcParams(inertia=inertia, regulation=regulation, turbine_delay=0.5,
                       governor_delay=0.2, integrator_gain=1.0)
    a, b = discretize_zoh(*build_continuous(params), 0.01)
    q = np.diag(q_diag)
    r = np.diag(r_diag)
    l = design_kalman_gain(a, C_OUT, q, r)
    matrix = np.full((n, m), 0.0)
    for i in range(n):
        matrix[i, i % m] = mcol
    dead = matrix.sum(axis=0) == 0
    matrix[0, dead] = 1e-3  # no all-zero columns
    load_map = LoadMap(matrix=matrix, b_nom=np.ones(m, dtype=int))
    envelope = SafetyEnvelope(f_lo=59.5, f_hi=60.5, pe_lo=-0.1, pe_hi=0.1)
    th = np.asarray(thresholds if thresholds is not None else [0.01] * n, dtype=float)
    sched = np.zeros((n, 1)) if sched is None else np.asarray(sched, dtype=float)
    return GridModel(droop=[params.droop] * n, a=[a] * n, b=[b[:, 0]] * n, l=[l] * n,
                     k=np.zeros((n, 4)), q_noise=[q] * n, r_noise=[r] * n,
                     ts=0.01, load_map=load_map, envelope=envelope, thresholds=th,
                     scheduled_load=sched, noise_enabled=noise_enabled)
