import math
import os

import numpy as np
import pytest

from permz.errors import DataError, NumericalError, ValidationError
from permz.experiments import ExperimentConfig, pool_size, run_ensemble, run_experiment
from permz.processes import ProcessSpec


def _raise_numerical(series):
    raise NumericalError("no convergence")


def _raise_foreign(series):
    raise ZeroDivisionError("boom")


# -- pool sizing (arithmetic only; no pool is started) ------------------------

@pytest.mark.parametrize("jobs", [0, -5])
def test_pool_size_rejects_jobs_below_one(jobs):
    with pytest.raises(ValidationError):
        pool_size(jobs, 10)


def test_pool_size_is_bounded_by_members_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pool_size(1, 10) == 1
    assert pool_size(3, 10) == 3
    assert pool_size(10**6, 10) == 4
    assert pool_size(8, 2) == 2
    assert pool_size(8, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(8, 10) == 1


# -- the engine ---------------------------------------------------------------

def test_run_ensemble_generates_specs_and_keeps_index_order():
    sources = [ProcessSpec("white-noise", length=n, seed=n) for n in (5, 3, 8)]
    sources.append(np.zeros(2))
    assert run_ensemble(len, sources, 1, "mixed") == [5, 3, 8, 2]


def test_run_ensemble_pool_keeps_index_order():
    sources = [np.zeros(n) for n in (4, 1, 3, 2)]
    assert run_ensemble(len, sources, 2, "zeros") == [4, 1, 3, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_ensemble_keeps_package_error_classes(jobs):
    with pytest.raises(NumericalError):
        run_ensemble(_raise_numerical, [np.zeros(3)] * 2, jobs, "x")


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_ensemble_wraps_foreign_errors(jobs):
    with pytest.raises(DataError, match="process 'x' failed: boom"):
        run_ensemble(_raise_foreign, [np.zeros(3)] * 2, jobs, "x")


def test_experiment_order_error_keeps_its_class():
    config = ExperimentConfig(orders=(1,), realizations=1, t_max=100)
    with pytest.raises(ValidationError, match="at least 2"):
        run_experiment("fig1", config)


@pytest.mark.parametrize("kwargs", [
    {"alphas": (math.nan,)}, {"alphas": (math.inf,)}, {"alphas": (0.0,)},
    {"realizations": 2.5}, {"jobs": 1.5},
    {"t_max": 0}, {"t_max": -3}, {"t_max": 2.5}, {"seed": 2.5}, {"seed": math.nan},
], ids=["alpha-nan", "alpha-inf", "alpha-0", "realizations-2.5", "jobs-1.5",
        "t_max-0", "t_max--3", "t_max-2.5", "seed-2.5", "seed-nan"])
def test_experiment_config_rejects_values_outside_their_domain(kwargs):
    with pytest.raises(ValidationError):
        ExperimentConfig(**kwargs)


def test_fractional_jobs_raise_validation_error_before_any_member():
    with pytest.raises(ValidationError, match="at least 1"):
        pool_size(1.5, 2)
    with pytest.raises(ValidationError, match="at least 1"):
        run_ensemble(_raise_foreign, [np.zeros(3)] * 2, 1.5, "x")
