import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import permz


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
