"""Golden outputs of the six experiments at reduced scale.

Every CSV and the canonical summary of each experiment are compared with
sha256 digests captured before the ensemble engine and the orbit
generator were consolidated, so any change of output, down to the last
printed digit, fails here.  ``*_metadata.json`` holds the runtime and is
not digested.

The ``census --trace`` and ``decay`` commands are digested the same way:
the sha256 of their standard output, captured before the prefix curve
became the only input form of ``fit_decay``.  The ``entropy``,
``generate`` (to stdout), plain ``census`` and ``xp`` digests were
captured before ``entropy_report`` was removed and the CLI stopped
copying the experiment defaults.  The ``entropy`` runs over repeated,
unsorted and ``L! > n`` order lists and ``decay --order 6`` were captured
while every order was still coded on its own.  The two ``generate
--process shift`` digests were captured while shift samples were still
float dot products of the 53-bit bit windows.  The two ``generate
--process piecewise-linear`` digests and the dithered map scan were
captured while callers still passed the zigzag's kicks to ``map_orbit``.

The ``--output`` runs of ``generate``, ``census``, ``entropy`` and
``decay`` digest the written file and its JSON sidecar, with and without
``--seed`` and ``--realizations``; they were captured while ``--seed``
and ``--realizations`` still had argparse defaults, so they pin the
defaults each ``--process`` run records.

fig4's summary (its fits) and the ``generate --process fgn`` digest depend on
numpy's ``np.log`` kernel, so each holds one digest per kernel
(``log_kernel``): the AVX-512 one as captured, and the baseline one captured
with AVX-512 off.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from log_kernel import for_this_kernel
from permz.analysis import _orbit_batch, forbidden_patterns_of_map
from permz.cli import main
from permz.experiments import ExperimentConfig, run_experiment
from permz.processes import ProcessSpec

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
        "summary": {
            "avx512": "305b5d03c5baa3e708043fec2aafd4ee9a29284b8f3138b3729b288bffb358ad",
            "baseline": "6305cc2f6bf32ae5f6b21642940940862b1ee7c170cf3775097a5a79711a9430",
        },
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
    want = {key: for_this_kernel(golden) for key, golden in GOLDEN[name].items()}
    assert digests(name, CONFIGS[name], tmp_path) == want


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
    ("entropy", "--process", "white-noise", "--length", "3000", "--seed", "5",
     "--orders", "3:5", "--alpha", "0.5,1,2", "--class", "fac"):
        "3119fb5c04077d49ff86fcf743755c2cbc7d773497cb95d7d57735a284b91a76",
    ("entropy", "--process", "fbm", "--hurst", "0.4", "--length", "2000",
     "--seed", "3", "--realizations", "3", "--orders", "3,4", "--alpha", "0.5,1",
     "--class", "sub:0.5"):
        "94f0136eb3871fa8ad3d46e1e23b4019b3e02c8ed0c9ab27a32b4ba3d9dcb112",
    ("entropy", "--process", "noisy-logistic", "--length", "5000", "--seed", "2",
     "--orders", "3:5", "--stabilized", "--class", "exp:0.7"):
        "bf98daba8a99623213b89fdbe66e4c0b4954fc54b2ece0c5f9d9f9cdb31e0cf3",
    ("entropy", "--process", "logistic", "--length", "3000", "--orders", "3,4",
     "--alpha", "0,1", "--class", "subn:2"):
        "3a1d33a78df68edcbcfbc8d7d8510bf7159cfbe5675d111ddd96fe719be97e27",
    ("entropy", "--process", "white-noise", "--length", "2000", "--seed", "1",
     "--orders", "3", "--alpha", "0,2", "--format", "json"):
        "b1c165c99b398f5f2c0336c78e90f1e298540811c1a25938b8cf437aac3d8ee1",
    ("generate", "--process", "noisy-schuster", "--length", "200", "--seed", "4"):
        "010f1020b90d485bf64071b1f0ac9f04e2e6add13e2dbbb81c1ec4367ff03aa5",
    ("generate", "--process", "fgn", "--hurst", "0.3", "--length", "200",
     "--seed", "6"): {
        "avx512": "afb8f223a479a80a3f445604eb346df00eb5a60d1a56931800e7663b0d4e60f2",
        "baseline": "55aca424822ff729b4a3a0a935ff91e8633301523e8271657d5f5ab2fb3e37e1",
    },
    ("generate", "--process", "shift", "--length", "3000", "--seed", "7"):
        "1117b65225917058fd4482aa85c7fb0275c51f4c2052fae0c92d5e3bb85a5bb9",
    ("generate", "--process", "shift", "--length", "3000", "--seed", "-3"):
        "f112006542ab13589e88758d4edcfbaa5e6712d551f0872dc9cd59a85dac565a",
    ("census", "--process", "noisy-logistic", "--length", "3000", "--seed", "3",
     "--order", "4"):
        "b78612ee4578cb13716bcd0489855402c059e130693a22f260ff2982872c69cd",
    ("xp", "--period", "3", "--orders", "3:9", "--alpha", "0.5,1,2"):
        "9c7f46247a30a68423b775b1b1d518d4e31da8c5a8f682736f9aa83cbc60d8e7",
    ("entropy", "--process", "white-noise", "--length", "3000", "--seed", "7",
     "--orders", "4,3,4"):
        "5b2c81d2610b761af21ba25cd643192d515ae46ec0fb11223743c2ea42eced90",
    ("entropy", "--process", "noisy-logistic", "--length", "5000", "--seed", "8",
     "--orders", "7,3,5", "--stabilized"):
        "3e984ce8293da59fca6ea9ad2934f386faef6778576cd38d8b6f142dce5b0ecc",
    ("entropy", "--process", "xp", "--period", "2", "--length", "3000", "--seed", "9",
     "--orders", "8:12"):
        "d078a9469f055f6d6c6dd5007f4a989b2abd18a90f6a41748000b512a1a3ba4d",
    ("decay", "--process", "white-noise", "--length", "3000", "--order", "6",
     "--realizations", "3", "--seed", "14"):
        "520056f817aad9e6dc27b012dcbaeaaa7a4613418938704cbc5cbfc75b00fc3e",
    ("generate", "--process", "piecewise-linear", "--sigma", "2.7", "--length", "25000",
     "--seed", "5"):
        "8dad9e2750b80e0afba9330aaa1390fffa25f37665284b2b27efce8bb75d98ce",
    ("generate", "--process", "piecewise-linear", "--sigma", "2.7", "--length", "25000",
     "--seed", "5", "--no-dither"):
        "6baf01f7ee3836be52942d9b3eefd22a38c5ddde25198cc2a9d2bae911d2c774",
}


@pytest.mark.parametrize("argv", sorted(CLI_GOLDEN), ids=" ".join)
def test_cli_outputs_match_golden_digests(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(list(argv)) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == for_this_kernel(CLI_GOLDEN[argv])


@pytest.mark.parametrize("seed, rows_digest", [
    (0, "53e9e7ffcba3ea04a9c5bbce3371053109e188cf177d2a73d5634082dcb98249"),
    (-5, "72521b0f09206bc3303ee6c185ea70dc7420a46cdfb049987e7f85c7afa9b731"),
])
def test_dithered_map_scan_matches_golden_digests(seed, rows_digest):
    # three kick blocks per orbit
    spec = ProcessSpec("piecewise-linear", length=1, seed=seed, sigma=2.7)
    rows = np.vstack(list(_orbit_batch(spec, 4, 25_000)))
    assert hashlib.sha256(rows.tobytes()).hexdigest() == rows_digest
    forbidden = sorted(p.code for p in forbidden_patterns_of_map(spec, 4, 4, 25_000))
    assert forbidden == [6, 22, 23]


SIDECAR_GOLDEN = {
    ("generate", "--process", "noisy-schuster", "--length", "200"): (
        "c1406ce45d28a040db6d94c52fb21097199ec6632f12b656f78f77f089e0a63f",
        "42b2fb758384a273f0ff5828d4a631af035ccf9142b7f7b1efb2cf5b5e9a9e79"),
    ("generate", "--process", "noisy-schuster", "--length", "200", "--seed", "4"): (
        "010f1020b90d485bf64071b1f0ac9f04e2e6add13e2dbbb81c1ec4367ff03aa5",
        "4d1b7150db6dbb1feccd744691cd25b5561a2eed943d83f11b65d6fe0f4a5532"),
    ("census", "--process", "white-noise", "--length", "500", "--order", "3"): (
        "d71427c98dc7b7f9cb8a624206dea7be22308f27e43d23b16b46a0e4ddd7c616",
        "ce3f64fd3ecc4d6d5163612de28670891e7c3e4343d149ebe66b2f17c8ed1b66"),
    ("census", "--process", "white-noise", "--length", "500", "--order", "3",
     "--seed", "4"): (
        "24b9ff0fc06545dd486cf5dc32bc893e77dbfa61a53b40d10485aeca8bcb30c4",
        "d495874e65f4329860676063aa950161ecb7f172005c2680beaca7ca2d7f933c"),
    ("entropy", "--process", "white-noise", "--length", "2000", "--orders", "3"): (
        "6ecb7e1bbb8381773377514a22b5074f743d48a58bc52d9721af61b6ae715e1c",
        "a22816dd82a7be1a658a3fb3a3de394fa6e5d0c2d270105454f50a9706cae5cb"),
    ("entropy", "--process", "white-noise", "--length", "2000", "--orders", "3",
     "--seed", "5", "--realizations", "2"): (
        "ce368ec3a32638349ad4d327771c03689ef34ae5f6b02e8fbe1bb51d03659627",
        "cda4a19a40429cf9803e13e99a551e1cfd11c556688542f238b42d45d7039001"),
    ("decay", "--process", "white-noise", "--length", "300", "--order", "4"): (
        "19f1702c2ef69c972909169a3a18050c9b89d27b7ae0896e57684dec2d36623b",
        "9d9ada4490e1d1be5cf8d8bcfe2eb3fcd4c92ae53e6de82e4fb28ed89ca09726"),
    ("decay", "--process", "white-noise", "--length", "300", "--order", "4",
     "--seed", "11", "--realizations", "3"): (
        "18aa88162d48c00ce1925827626d4e182710a7b7967ffe6dae6b2366c1574dd2",
        "6bedd22674bfc9f8159a013ee77228dd6dcf359df6159f0fc7e0fbfd8fe88a01"),
}


@pytest.mark.parametrize("argv", sorted(SIDECAR_GOLDEN), ids=" ".join)
def test_output_and_sidecar_match_golden_digests(argv, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # the sidecar records the --output path
    with redirect_stdout(io.StringIO()):
        assert main([*argv, "--output", "out"]) == 0
    assert tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("out", "out.json")
    ) == SIDECAR_GOLDEN[argv]


# sha256 of ``permz --help`` and of each ``<command> --help`` at 80 columns,
# captured before the fig2/fig3 runner was merged; the census, entropy and
# decay digests were re-captured once, when ``--input`` became a repeatable
# option taking one or more files (usage ``[--input INPUT [INPUT ...]]``)
HELP_GOLDEN = {
    (): "ab3eb53832c38a3d7052eb5bf1a4816aad73b8e29f6dd8d577a24c4c9be165ec",
    ("generate",): "58ce6db9807aa02b5cf44cc8124312a4ac2ca18a77d0db2845b0339d0e7f9855",
    ("census",): "c1b5e5f6932bb9ab4be284dec4a3cfe327049541b7360c2612547930b99cd2de",
    ("entropy",): "4d1f6fdfb684435ba98154d292508c9f682f195f46883a55cddb850a4113f13c",
    ("decay",): "aa1491ae0c632ed93a1d935b3dd12484c0c1014324efa4eb60c2c37ff95ffc34",
    ("experiment",): "390da50fc942ff2682fe89d954f6d9ac144c02301647ad15b345d4b5987008e9",
    ("xp",): "9f00996ef6e15800e6b744600850ec221d889627b644f0117a55f29622b19fbd",
}


@pytest.mark.parametrize("command", sorted(HELP_GOLDEN),
                         ids=lambda c: " ".join(c) or "permz")
def test_help_texts_match_golden_digests(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    buf = io.StringIO()
    with redirect_stdout(buf), pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == HELP_GOLDEN[command]
