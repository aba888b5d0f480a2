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


def test_every_traced_binding_resolves_to_a_callable(monkeypatch):
    """The benchmark's tracer wraps functions where the program binds them;
    a binding that moved or is no longer imported would fail only there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    for module_name, attr, *_ in spans.WRAP_POINTS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
