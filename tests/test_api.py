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
