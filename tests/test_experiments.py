import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from permz import entropy, experiments, ordinal, processes
from permz.analysis import stabilized_census
from permz.entropy import ComplexityClass, renyi_entropy, z_topological
from permz.errors import DataError, NumericalError, ValidationError
from permz.experiments import (
    ExperimentConfig, _g_curve_and_codes, entropy_cells, mean_curve, missing_curves,
    pool_size, render_table, run_ensemble, run_experiment,
)
from permz.ordinal import pattern_census, visible_curve
from permz.processes import ProcessSpec, generate


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
    assert run_ensemble(len, sources, 1) == [5, 3, 8, 2]


def test_run_ensemble_pool_keeps_index_order():
    sources = [np.zeros(n) for n in (4, 1, 3, 2)]
    assert run_ensemble(len, sources, 2) == [4, 1, 3, 2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_ensemble_keeps_package_error_classes(jobs):
    with pytest.raises(NumericalError):
        run_ensemble(_raise_numerical, [np.zeros(3)] * 2, jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_ensemble_keeps_foreign_error_classes(jobs):
    with pytest.raises(ZeroDivisionError, match="^boom$"):
        run_ensemble(_raise_foreign, [np.zeros(3)] * 2, jobs)


def test_run_ensemble_pool_takes_a_measure_that_does_not_pickle():
    sources = [np.arange(n, dtype=float) for n in (4, 1, 3, 2)]
    measure = lambda series: float(series.sum())  # noqa: E731
    assert run_ensemble(measure, sources, 2) == run_ensemble(measure, sources, 1)


def test_run_ensemble_pool_cancels_members_after_an_error():
    ran = []

    def measure(series):
        if series.size == 1:  # the member at index 0
            raise ZeroDivisionError("first")
        time.sleep(0.05)
        ran.append(series.size)

    with pytest.raises(ZeroDivisionError, match="first"):
        run_ensemble(measure, [np.zeros(n) for n in range(1, 21)], 2)
    assert len(ran) < 19


def test_fig1_pool_from_a_cold_memo_equals_the_in_process_run():
    def rendered(result):
        tables = {stem: render_table(*table) for stem, table in result.tables.items()}
        return tables, json.dumps(result.summary, sort_keys=True, default=str)

    config = ExperimentConfig(realizations=2)
    memos = (processes._fgn_amplitudes, processes._noiseless_orbit)
    for memo in memos:
        memo.cache_clear()
    pooled = run_experiment("fig1", replace(config, jobs=2))
    misses = [memo.cache_info().misses for memo in memos]
    # the keys of fig1's seven processes at its default T, each already held
    kept = [processes._fgn_amplitudes(50_000, h)[2] for h in (0.2, 0.4, 0.6)]
    kept += [processes._noiseless_orbit(kind, processes._DEFAULT_X0, 50_000)
             for kind in ("noisy-logistic", "noisy-schuster")]
    assert [memo.cache_info().misses for memo in memos] == misses
    assert not any(array.flags.writeable for array in kept)
    assert rendered(pooled) == rendered(run_experiment("fig1", config))


def test_experiment_order_error_keeps_its_class():
    with pytest.raises(ValidationError, match="at least 2"):  # from the config
        run_experiment("fig1", ExperimentConfig(orders=(1,), realizations=1,
                                                t_max=100))


@pytest.mark.parametrize("kwargs", [
    {"alphas": (math.nan,)}, {"alphas": (math.inf,)}, {"alphas": (0.0,)},
    {"realizations": 2.5}, {"jobs": 1.5},
    {"t_max": 0}, {"t_max": -3}, {"t_max": 2.5}, {"seed": 2.5}, {"seed": math.nan},
    {"orders": ()}, {"alphas": ()}, {"t_max": 2**63}, {"t_max": 10**400},
], ids=["alpha-nan", "alpha-inf", "alpha-0", "realizations-2.5", "jobs-1.5",
        "t_max-0", "t_max--3", "t_max-2.5", "seed-2.5", "seed-nan",
        "orders-empty", "alphas-empty", "t_max-2**63", "t_max-10**400"])
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


def test_fig1_runs_at_a_t_max_equal_to_the_largest_order():
    # one window per series at L = 7: one pattern, so every L = 7 cell is 0
    result = run_experiment("fig1", ExperimentConfig(realizations=1, t_max=7))
    cells = result.summary["curves"]
    assert len(cells) == 7 * 5 * 3 and all(math.isfinite(v) for v in cells.values())
    assert all(v == 0.0 for key, v in cells.items() if "|L7|" in key)


@settings(max_examples=60, deadline=None)
@given(size=st.sampled_from([1, 2, 7, 8, 9, 35, 129]), data=st.data())
def test_z_curves_reduce_each_cell_as_a_1d_array(size, data):
    # each cell's (mean, sd) is bit-equal to that of its members as a 1-d
    # array; an axis-0 reduction of (members x cells) differs in the last bits
    config = ExperimentConfig(realizations=size, alphas=(0.5, 1.0, 1.5))
    columns = [("a", None, None, (3, 4, 5)), ("b", None, None, (4,))]
    values = {(label, L, alpha): data.draw(st.lists(
                  st.floats(-4.0, 4.0), min_size=size, max_size=size))
              for label, *_, orders in columns for L in orders for alpha in config.alphas}

    def ensemble(config, j, spec, length, measure):
        return [{(L, alpha): (None, None, vals[i])
                 for (name, L, alpha), vals in values.items() if name == columns[j][0]}
                for i in range(size)]

    with mock.patch.object(experiments, "_ensemble", ensemble):
        curves = experiments._z_curves(columns, config, 100)
    assert list(curves) == list(values)
    for key, vals in values.items():
        x = np.array(vals)
        assert repr(curves[key]) == repr((float(x.mean()), float(x.std()))), key


def test_alphas_sharing_a_label_are_rejected_before_any_series(monkeypatch):
    # both alphas print as "1": one fig1_alpha1.csv and 7 of 14 summary curves
    calls = []
    monkeypatch.setattr("permz.experiments.generate",
                        lambda spec: calls.append(spec) or np.zeros(spec.length))
    with pytest.raises(ValidationError, match="share a :g label"):
        run_experiment("fig1", ExperimentConfig(alphas=(1.0000001, 1.0000002),
                                                realizations=1, t_max=100))
    assert calls == []
    assert ExperimentConfig(alphas=(1.5, 1, 1.0)).alphas == (1.5, 1, 1.0)


def test_fig1_orders_are_checked_before_any_series(monkeypatch):
    calls = []
    monkeypatch.setattr("permz.experiments.generate",
                        lambda spec: calls.append(spec) or np.zeros(spec.length))
    with pytest.raises(ValidationError, match="at least 2, at most 20"):
        run_experiment("fig1", ExperimentConfig(orders=(3, 21), realizations=2,
                                                t_max=100))
    assert calls == []


@pytest.mark.parametrize("orders", [(1,), (2.5,), (3, 21)])
def test_orders_are_checked_where_the_config_is_made(orders, monkeypatch):
    # fig2 counts at L = 6 only, so it would run past a bad order unread
    calls = []
    monkeypatch.setattr("permz.experiments.generate",
                        lambda spec: calls.append(spec) or np.zeros(spec.length))
    with pytest.raises(ValidationError, match="at least 2, at most 20"):
        run_experiment("fig2", ExperimentConfig(orders=orders, realizations=2,
                                                t_max=100))
    assert calls == []


def test_table2_ignores_t_max():
    result = run_experiment("table2", ExperimentConfig(t_max=1))
    assert result.summary["all_match"]


def test_an_unknown_experiment_names_the_six():
    with pytest.raises(ValidationError) as info:
        run_experiment("fig9")
    assert str(info.value) == (
        "unknown experiment 'fig9'; choose from fig1, fig2, fig3, fig4, table1, table2")


@pytest.mark.parametrize("orders, alphas", [
    (np.array([3, 4]), np.array([0.5, 1.0])),
    ([3, 4], [0.5, 1]),
    (np.array([3, 4], dtype=np.int32), (np.float32(0.5), np.float64(1.0))),
    ((3, 4), ("0.5", "1")),
], ids=["arrays", "lists", "numpy-scalars", "alpha-strings"])
def test_config_stores_its_lists_as_tuples(orders, alphas, tmp_path):
    # an array raised "The truth value of an array ... is ambiguous", a list
    # left the frozen config unhashable, and a string alpha passed the alpha
    # check but not the :g label
    config = ExperimentConfig(orders=orders, alphas=alphas, realizations=1, t_max=400)
    plain = ExperimentConfig(orders=(3, 4), alphas=(0.5, 1.0), realizations=1, t_max=400)
    assert config == plain and hash(config) == hash(plain)
    assert [type(v) for v in config.orders + config.alphas] == [int, int, float, float]
    written = []
    for name, cfg in (("given", config), ("plain", plain)):
        result = run_experiment("fig1", cfg, tmp_path / name)
        meta = json.loads((tmp_path / name / "fig1_metadata.json").read_text())
        written.append((result.tables, meta["config"], sorted(
            (Path(f).name, Path(f).read_bytes()) for f in result.files
            if f.endswith(".csv"))))
    assert written[0] == written[1]


@pytest.mark.parametrize("kwargs, message", [
    ({"orders": None}, "orders must not be empty"),
    ({"alphas": None}, "alphas must not be empty"),
    ({"orders": 5}, "orders must be a sequence"),  # was a bare TypeError
    ({"alphas": 0.5}, "alphas must be a sequence"),
])
def test_config_lists_that_are_not_sequences_are_named(kwargs, message):
    with pytest.raises(ValidationError) as info:
        ExperimentConfig(**kwargs)
    assert str(info.value) == message


def test_fractional_jobs_raise_validation_error_before_any_member():
    with pytest.raises(ValidationError, match="at least 1"):
        pool_size(1.5, 2)
    with pytest.raises(ValidationError, match="at least 1"):
        run_ensemble(_raise_foreign, [np.zeros(3)] * 2, 1.5)


def test_entropy_cells_compute_each_renyi_entropy_once(monkeypatch):
    calls, evaluate = [], entropy._renyi

    def counted(support, alpha):
        calls.append(alpha)
        return evaluate(support, alpha)

    # every binding: the module's, and one the cell may hold of its own
    monkeypatch.setattr("permz.entropy._renyi", counted)
    monkeypatch.setattr("permz.experiments._renyi", counted, raising=False)
    series = generate(ProcessSpec("white-noise", length=2000, seed=1))
    cells = entropy_cells(series, orders=(3, 4, 5), alphas=(0.0, 0.5, 1.0, 1.5),
                          cls=ComplexityClass.factorial())
    assert len(cells) == 12 and len(calls) == 12


@st.composite
def cell_series(draw):
    """Normal, tie-heavy or period-3 series of 10..700 samples: at orders
    2..7 both L! <= n windows and L! > n occur, and several stop-rule
    blocks of 5 * L! fit at the low orders."""
    kind = draw(st.sampled_from(["normal", "ties", "period-3"]))
    size = draw(st.integers(10, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        return rng.normal(size=size)
    if kind == "ties":
        return rng.integers(0, 3, size=size).astype(np.float64)
    return np.resize(rng.normal(size=3), size) + 1e-3 * rng.normal(size=size)


@settings(max_examples=80, deadline=None)
@given(x=cell_series(), orders=st.lists(st.integers(2, 7), min_size=1, max_size=4),
       alphas=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0005, 2.0, 7.5]), min_size=1,
                       max_size=3),
       cls=st.sampled_from([ComplexityClass.factorial(), ComplexityClass.exponential(2.0),
                            ComplexityClass.sub_factorial(0.5)]),
       stabilized=st.booleans())
def test_entropy_cells_equal_the_public_route_bit_for_bit(x, orders, alphas, cls,
                                                          stabilized):
    assume(x.size >= max(orders))
    census = stabilized_census if stabilized else pattern_census
    want = {}
    for L in orders:
        dist = census(x, L)
        for alpha in alphas:
            r = renyi_entropy(dist, alpha)
            z = cls.z(r) if alpha > 0 else z_topological(dist.support_size, cls)
            want[(L, alpha)] = (r, z, z / L)
    assert repr(entropy_cells(x, orders, alphas, cls, stabilized)) == repr(want)


def _count_lag_sums(monkeypatch) -> list[int]:
    tops = []
    lag_sums = ordinal._lag_sums
    monkeypatch.setattr(ordinal, "_lag_sums",
                        lambda x, top: tops.append(top) or lag_sums(x, top))
    return tops


@pytest.mark.parametrize("stabilized", [True, False])
def test_entropy_cells_code_each_series_once(stabilized, monkeypatch):
    series = generate(ProcessSpec("noisy-logistic", length=6000, seed=2))
    orders, alphas, cls = (5, 3, 7, 3), (0.0, 1.0, 2.0), ComplexityClass.factorial()
    census = stabilized_census if stabilized else pattern_census
    want = {}
    for L in orders:
        dist = census(series, L)
        for alpha in alphas:
            r = renyi_entropy(dist, alpha)
            z = entropy_cells(series, (L,), (alpha,), cls, stabilized)[(L, alpha)][1]
            want[(L, alpha)] = (r, z, z / L)
    tops = _count_lag_sums(monkeypatch)
    assert entropy_cells(series, orders, alphas, cls, stabilized) == want
    assert tops == [7]


def test_missing_curves_code_each_series_once(monkeypatch):
    series = generate(ProcessSpec("fbm", length=3000, seed=4, hurst=0.6))
    want = {L: math.factorial(L) - visible_curve(series, L) for L in (6, 4, 5)}
    tops = _count_lag_sums(monkeypatch)
    got = missing_curves(series, (6, 4, 5, 4))
    assert tops == [6] and list(got) == [6, 4, 5]
    assert all(np.array_equal(got[L], want[L]) for L in want)


def test_fig3_measure_codes_each_series_once(monkeypatch):
    series = generate(ProcessSpec("xp", length=50, seed=3, period=4))
    want = (np.log(visible_curve(series, 6)), ordinal._positions(series, 6))
    tops = _count_lag_sums(monkeypatch)
    g, codes = _g_curve_and_codes(series, 6)
    assert tops == [6]
    assert g.tobytes() == want[0].tobytes()
    assert codes.dtype == want[1].dtype and np.array_equal(codes, want[1])


@pytest.mark.parametrize("spec", [ProcessSpec("xp", length=400, seed=5, period=3),
                                  ProcessSpec("white-noise", length=3_000, seed=5)])
def test_g_measure_support_equals_the_census_support(spec):
    # 400 leaves L! = 720 > n windows, 3000 does not
    series = generate(spec)
    g, codes = _g_curve_and_codes(series, 6)
    assert ordinal._census(codes, 6)[0].tolist() == list(pattern_census(series, 6).counts)
    assert g.tobytes() == np.log(visible_curve(series, 6)).tobytes()


def _union_of_member_censuses(spec, config, length, j) -> int:
    """The rule the fig2/fig3 runner replaced: a set of every member's census codes."""
    members = processes.realization_specs(replace(spec, length=length, seed=config.seed),
                                          config.realizations, j)
    return len({code for m in members for code in pattern_census(generate(m), 6).counts})


@pytest.mark.parametrize("config", [ExperimentConfig(realizations=2),
                                    ExperimentConfig(realizations=20, t_max=60)])
def test_fig3_union_is_the_distinct_patterns_of_its_members(config, tmp_path):
    # 2 x 45 windows leave 6! = 720 > n in the union's census, 20 x 55 do not
    unions = run_experiment("fig3", config, tmp_path).summary["union_support"]
    assert unions == {
        f"xp-p{p}": _union_of_member_censuses(ProcessSpec("xp", length=1, period=p),
                                              config, config.t_max or 50, j)
        for j, p in enumerate((2, 3, 4, 5, 6))
    }


def test_g_union_counts_the_patterns_no_single_member_shows():
    # 35 windows per white-noise member: the union exceeds every member's support
    kinds = [("white-noise", ProcessSpec("white-noise", length=1)),
             ("noisy-logistic", ProcessSpec("noisy-logistic", length=1))]
    config = ExperimentConfig(realizations=4)
    unions = experiments._g_tables("g", kinds, config, 40, 1)[2]
    want = {name: _union_of_member_censuses(spec, config, 40, j)
            for j, (name, spec) in enumerate(kinds)}
    assert unions == want and want["white-noise"] > 35


def test_mean_curve_averages_point_by_point_and_needs_one_length():
    members = [{4: np.array([3.0, 2.0, 1.0])}, {4: np.array([1.0, 1.0, 0.0])}]
    assert mean_curve(members, 4).tolist() == [2.0, 1.5, 0.5]
    assert mean_curve([(np.arange(4.0), [])], 0).tolist() == [0.0, 1.0, 2.0, 3.0]
    members.append({4: np.array([1.0, 1.0])})
    with pytest.raises(DataError, match="ensemble members must share one series length"):
        mean_curve(members, 4)
