"""The ``np.log`` kernel numpy dispatches to on this CPU, for the goldens
whose bits depend on it.

numpy's AVX-512 log kernel (``X86_V4`` and above) is 1 ulp off its baseline
kernel on some inputs, and the baseline kernel equals ``math.log`` there.
``np.log`` reaches fGn/fBm samples through Box-Muller and the fitted
values through the fits, so a golden of those bits holds one value per
kernel, captured with AVX-512 on and with
``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"``.
"""

import math

import numpy as np
import pytest

PROBE = 0.9583321033860003
KERNELS = {
    -0.04256089784292358: "avx512",
    -0.04256089784292357: "baseline",  # math.log(PROBE)
}


def log_kernel() -> str:
    """``"avx512"`` or ``"baseline"``; any other ``np.log(PROBE)`` fails the
    calling test with the value it gave."""
    value = float(np.log(PROBE))
    if value not in KERNELS:
        pytest.fail(f"np.log({PROBE!r}) = {value!r} (math.log gives "
                    f"{math.log(PROBE)!r}): no golden for this np.log kernel")
    return KERNELS[value]


def for_this_kernel(golden):
    """``golden`` itself, or its value for this CPU's kernel if it holds one
    per kernel."""
    return golden[log_kernel()] if isinstance(golden, dict) else golden
