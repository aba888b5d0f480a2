"""Golden outputs of the six experiments at reduced scale.

Every CSV and the canonical summary of each experiment are compared with
sha256 digests captured before the ensemble engine and the orbit
generator were consolidated, so any change of output, down to the last
printed digit, fails here.  ``*_metadata.json`` holds the runtime and is
not digested.

The ``census --trace`` and ``decay`` commands are digested the same way:
the sha256 of their standard output, captured before the prefix curve
became the only input form of ``fit_decay``.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from permz.cli import main
from permz.experiments import ExperimentConfig, run_experiment

CONFIGS = {
    "fig1": ExperimentConfig(realizations=2, t_max=3000),
    "fig2": ExperimentConfig(realizations=2, t_max=1000),
    "fig3": ExperimentConfig(realizations=2),
    "fig4": ExperimentConfig(realizations=2, t_max=3000),
    "table1": ExperimentConfig(realizations=2, t_max=1000),
    "table2": ExperimentConfig(realizations=2),
}

GOLDEN = {
    "fig1": {
        "fig1_alpha0.5.csv":
            "287ba048f1b51de7f621a8ab52ca382243e19bc43d648a3eb2065645c6533336",
        "fig1_alpha1.5.csv":
            "60747ba480087da7e91399279e4fe95788a97338c851bffca22f8ea33dd2c2c7",
        "fig1_alpha1.csv":
            "120c19b314d2c39b4ed07e140e2575ea52f9d6032191deda4bed742c200f54a9",
        "summary":
            "f107f753bccdecd55dadc1dc5ad3e6fc4b01d37608a8737e9b3cde7eb4d8a6a6",
    },
    "fig2": {
        "fig2_g6.csv":
            "4edc22fed3397f3ccdd098d799df6262b25cc31f859821a2aafb3d388ea21117",
        "summary":
            "fdf7ec9293dfc40acdf8cc776a666ef5feddf575fdf8b36c387a7384508d2bb2",
    },
    "fig3": {
        "fig3_g6.csv":
            "2ab2b9689fdd85b9a0b818bd2721b0f6b1887c35b7a6b55a290639515f4ac273",
        "fig3_support.csv":
            "2fefafa4535297564b15edc60befe200c4e6a6ef6826b0d61f6db516ac6024da",
        "summary":
            "fb6b9e94602fa57d50af222ad605adedcc064460114b1a20993814f4d4087a00",
    },
    "fig4": {
        "fig4_alpha0.5.csv":
            "70c043bcca582f918d235347e355ad7b5fb3680ce6a1630833456c7a4c17aea8",
        "fig4_alpha1.5.csv":
            "2759fb8ddd9656bc00eea47ad95fd851732d2af6794c49d0bc156e3c8e9d2097",
        "fig4_alpha1.csv":
            "f797f36048d928dbc83ba5b8939f12ce2efda484255a5e90e85aa04b87ad6a64",
        "summary":
            "305b5d03c5baa3e708043fec2aafd4ee9a29284b8f3138b3729b288bffb358ad",
    },
    "table1": {
        "summary":
            "d81c6395b96e2bb1ab66b94f0cc171c0952e038398bcc8d0a1a1ac083970b555",
        "table1_decay.csv":
            "27ffb36e367005169e797e393699dd63660a851aeb54a0550e508f97c43a8ffc",
    },
    "table2": {
        "summary":
            "93cbc2a5460343f9aebbd5c00133845faffacf7e7f5072e6dcddfe6da1e15077",
        "table2_allowed.csv":
            "4d2837c06d64574c9fa3dccfbd535fb51f0301636f914f3f7990d6af87271f78",
    },
}


def digests(name: str, config: ExperimentConfig, outdir: Path) -> dict[str, str]:
    result = run_experiment(name, config, outdir)
    out = {
        Path(path).name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for path in result.files
        if path.endswith(".csv")
    }
    summary = json.dumps(result.summary, sort_keys=True, default=str)
    out["summary"] = hashlib.sha256(summary.encode()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_outputs_match_golden_digests(name, tmp_path):
    assert digests(name, CONFIGS[name], tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", ["fig3", "table1"])
def test_process_pool_gives_golden_digests(name, tmp_path):
    config = replace(CONFIGS[name], jobs=2)
    assert digests(name, config, tmp_path) == GOLDEN[name]


CLI_GOLDEN = {
    ("census", "--process", "noisy-logistic", "--length", "3000", "--seed", "3",
     "--order", "4", "--trace"):
        "4aee70a6f29f874b185ba37c5b0f16e2b6c1ed53ab898aaf38639a52bbeb242e",
    ("census", "--process", "fbm", "--hurst", "0.4", "--length", "2000",
     "--seed", "5", "--order", "5", "--trace"):
        "163a9f7b353542b960bdfe612916d993cb1101f817128aaddaa4ed74e24fcc02",
    ("decay", "--process", "white-noise", "--length", "3000", "--order", "4",
     "--realizations", "3", "--seed", "11"):
        "18aa88162d48c00ce1925827626d4e182710a7b7967ffe6dae6b2366c1574dd2",
    ("decay", "--process", "fbm", "--hurst", "0.6", "--length", "3000",
     "--order", "4", "--realizations", "3", "--seed", "12", "--model", "stretched"):
        "0c6585c3f08d9701ea440f26f6f899a853fd2fa25b5bac3960693f7e9d779ad5",
    ("decay", "--process", "noisy-logistic", "--length", "3000", "--order", "4",
     "--realizations", "3", "--seed", "13", "--free-intercept"):
        "b91cbbf8317868a6bb1d8d2f11276b5228977e51a8955243b6c584d6a82dbe70",
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN), ids=" ".join)
def test_cli_outputs_match_golden_digests(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CLI_GOLDEN[argv]
