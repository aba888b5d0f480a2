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
    {"orders": ()}, {"alphas": ()},
], ids=["alpha-nan", "alpha-inf", "alpha-0", "realizations-2.5", "jobs-1.5",
        "t_max-0", "t_max--3", "t_max-2.5", "seed-2.5", "seed-nan",
        "orders-empty", "alphas-empty"])
def test_experiment_config_rejects_values_outside_their_domain(kwargs):
    with pytest.raises(ValidationError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("name, t_max, top", [
    ("fig1", 3, 7), ("fig1", 6, 7), ("fig2", 3, 6), ("fig3", 5, 6), ("fig4", 1, 14),
    ("fig4", 13, 14), ("table1", 3, 6),
])
def test_t_max_below_the_largest_order_is_rejected_before_any_series(
        name, t_max, top, monkeypatch):
    calls = []
    monkeypatch.setattr("permz.experiments.generate",
                        lambda spec: calls.append(spec) or np.zeros(spec.length))
    with pytest.raises(ValidationError, match=f"{name} needs t_max >= {top}"):
        run_experiment(name, ExperimentConfig(realizations=2, t_max=t_max))
    assert calls == []


def test_fig1_orders_are_checked_before_any_series(monkeypatch):
    calls = []
    monkeypatch.setattr("permz.experiments.generate",
                        lambda spec: calls.append(spec) or np.zeros(spec.length))
    with pytest.raises(ValidationError, match="at least 2, at most 20"):
        run_experiment("fig1", ExperimentConfig(orders=(3, 21), realizations=2,
                                                t_max=100))
    assert calls == []


def test_table2_ignores_t_max():
    result = run_experiment("table2", ExperimentConfig(t_max=1))
    assert result.summary["all_match"]


def test_fractional_jobs_raise_validation_error_before_any_member():
    with pytest.raises(ValidationError, match="at least 1"):
        pool_size(1.5, 2)
    with pytest.raises(ValidationError, match="at least 1"):
        run_ensemble(_raise_foreign, [np.zeros(3)] * 2, 1.5, "x")
