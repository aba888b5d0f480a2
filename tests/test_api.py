import ast
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import permz
from permz.processes import map_orbit, realization_specs


def test_public_api_is_pinned():
    assert permz.__all__ == [
        "__version__",
        "PermzError", "ValidationError", "DataError", "NumericalError",
        "OrdinalPattern", "PatternDistribution", "rank_vector", "lehmer_encode",
        "lehmer_decode", "window_codes", "pattern_census", "visible_curve",
        "ComplexityClass", "RateFit", "lambert_w", "lambert_n", "exp_iterated",
        "log_iterated", "renyi_entropy", "z_entropy", "z_topological",
        "entropy_rate_estimate",
        "ProcessSpec", "generate", "fgn_autocovariance", "derive_seed",
        "DecayFit", "XpAnalytics", "ClassConstantFit", "fit_decay",
        "xp_allowed_count", "xp_distribution", "xp_class_constant",
        "xp_pattern_probabilities", "estimate_class_constant",
        "forbidden_patterns_of_map", "stabilized_census",
        "EXPERIMENTS", "ExperimentConfig", "run_experiment",
    ]
    for name in permz.__all__:
        assert hasattr(permz, name), name


def test_every_source_file_parses_as_python_3_10():
    """pyproject claims Python >= 3.10.  This checks the grammar of every
    file only: a call to a library function added after 3.10 still passes."""
    top = Path(__file__).resolve().parents[1]
    paths = [p for d in ("src", "tests", "perfbench") for p in (top / d).rglob("*.py")]
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def _load_bench_module(name: str, monkeypatch):
    """Execute ``perfbench/<name>.py`` as a module, without touching perfbench."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves_to_a_callable(monkeypatch):
    """The benchmark's tracer wraps functions where the program binds them;
    a binding that moved or is no longer imported would fail only there."""
    spans = _load_bench_module("spans", monkeypatch)
    for module_name, attr, *_ in spans.WRAP_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_name_the_benchmark_imports_resolves():
    """perfbench imports names from where the program used to define them;
    a name moved without a re-export would fail only in a benchmark run."""
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "permz"):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                found = hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}") is not None  # a submodule
                assert found, f"{path.name}: from {node.module} import {alias.name}"


def test_benchmark_workloads_import(monkeypatch):
    """The workloads module runs its imports of the program at load time."""
    workloads = _load_bench_module("workloads", monkeypatch)
    assert workloads.WORKLOADS


_EXP1 = permz.ComplexityClass.exponential(1.0)
_FAC = permz.ComplexityClass.factorial()
_LOGISTIC = permz.ProcessSpec("logistic", length=1)
_NO_DIR = Path(__file__) / "out"  # below a file: run_experiment refuses it before running
# (argument, call, takes _HUGE): each data, integer, order, length or typed
# entry of the public API
_ENTRIES = [
    ("rank_vector-window", permz.rank_vector, True),
    ("window_codes-series", lambda v: permz.window_codes(v, 3), True),
    ("pattern_census-series", lambda v: permz.pattern_census(v, 3), True),
    ("stabilized_census-series", lambda v: permz.stabilized_census(v, 3), True),
    ("visible_curve-series", lambda v: permz.visible_curve(v, 3), True),
    ("renyi_entropy-dist", lambda v: permz.renyi_entropy(v, 2.0), True),
    ("z_entropy-dist", lambda v: permz.z_entropy(v, _FAC, 2.0), True),
    ("fit_decay-missing", lambda v: permz.fit_decay(v, 4), True),
    ("fgn_autocovariance-lag", lambda v: permz.fgn_autocovariance(0.3, v), True),
    ("map_orbit-x0-array", lambda v: map_orbit(_LOGISTIC, [v], 5), True),
    ("inverse-s", _EXP1.inverse, True),
    ("z_topological-allowed_count", lambda v: permz.z_topological(v, _EXP1), False),
    ("derive_seed-index", lambda v: permz.derive_seed(1, v), False),
    ("xp_allowed_count-L", lambda v: permz.xp_allowed_count(2, v), True),
    ("lehmer_decode-length", lambda v: permz.lehmer_decode(0, v), True),
    ("entropy_rate_estimate-L",
     lambda v: permz.entropy_rate_estimate([(v, 1.0), (3, 1.0), (4, 1.0)]), True),
    ("entropy_rate_estimate-pairs", permz.entropy_rate_estimate, False),
    ("estimate_class_constant-counts",
     lambda v: permz.estimate_class_constant(v, "exponential"), False),
    ("z_entropy-class", lambda v: permz.z_entropy([0.5, 0.5], v, 2.0), False),
    ("z_topological-class", lambda v: permz.z_topological(3, v), False),
    ("generate-spec", permz.generate, False),
    ("realization_specs-spec", lambda v: realization_specs(v, 2), False),
    ("map_orbit-spec", lambda v: map_orbit(v, 0.5, 5), False),
    ("forbidden_patterns_of_map-spec",
     lambda v: permz.forbidden_patterns_of_map(v, 3, 2, 10), False),
    ("run_experiment-config", lambda v: permz.run_experiment("fig1", v, _NO_DIR), False),
    ("parse-token", permz.ComplexityClass.parse, False),
    ("ProcessSpec-length",
     lambda v: permz.generate(permz.ProcessSpec("white-noise", length=v)), True),
    ("ExperimentConfig-t_max", lambda v: permz.run_experiment(
        "fig2", permz.ExperimentConfig(realizations=1, t_max=v), _NO_DIR), True),
    ("map_orbit-n", lambda v: map_orbit(_LOGISTIC, 0.3, v), True),
    ("forbidden_patterns_of_map-orbit_len",
     lambda v: permz.forbidden_patterns_of_map(_LOGISTIC, 3, 1, v), True),
    ("map_orbit-n-batch", lambda v: map_orbit(_LOGISTIC, np.full(64, 0.3), v), True),
    ("forbidden_patterns_of_map-n_orbits",
     lambda v: permz.forbidden_patterns_of_map(_LOGISTIC, 3, v, 10), True),
]
_JUNK = {"str": "a", "None": None, "nan": math.nan, "2.5": 2.5,
         "2-d": [[1.0, 2.0]], "strs": ["a", "b", "c"],
         "complex": np.array([0.5 + 1j, 0.25, 0.25])}
_HUGE = {"10**400": 10**400, "2**63": 2**63}  # data, orders and lengths: no huge count


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{name}-{label}")
    for name, call, real in _ENTRIES
    for label, value in {**_JUNK, **(_HUGE if real else {})}.items()
])
def test_junk_arguments_give_a_package_error_or_a_finite_result(call, value):
    try:
        result = call(value)
    except permz.PermzError:
        return
    assert np.all(np.isfinite(result))


def test_readme_python_blocks_run():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("\n", 1)[1] for block in text.split("```")[1::2]
              if block.startswith("python\n")]
    assert blocks  # the quick start
    for block in blocks:  # warnings are errors in the suite
        exec(compile(block, "README.md", "exec"), {})
