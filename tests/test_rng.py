import numpy as np
import pytest

from permz.errors import ValidationError
from permz.rng import GAMMA, Stream, raw_words

M64 = (1 << 64) - 1


def _reference_splitmix(seed, count):
    """Scalar stateful SplitMix64, written independently of the
    counter-mode implementation."""
    out = []
    state = seed & M64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        out.append(z ^ (z >> 31))
    return out


def test_matches_published_vector():
    # first output of SplitMix64 for seed 0
    assert int(raw_words(0, 0, 1)[0]) == 0xE220A8397B1DCDAF


def test_counter_mode_equals_stateful_reference():
    for seed in (0, 1, 42, 2**63, M64):
        assert [int(w) for w in raw_words(seed, 0, 16)] == _reference_splitmix(seed, 16)


def test_offset_addressing():
    full = raw_words(99, 0, 20)
    tail = raw_words(99, 5, 15)
    assert np.array_equal(full[5:], tail)


def test_stream_continuation():
    a = Stream(12345)
    chunks = np.concatenate([a.uniforms(3), a.uniforms(7), a.uniforms(2)])
    b = Stream(12345)
    assert np.array_equal(chunks, b.uniforms(12))


def test_uniform_range_and_moments():
    u = Stream(7).uniforms(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_gaussian_moments():
    g = Stream(99).gaussians(200_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01
    assert abs(np.mean(g**3)) < 0.03  # symmetry


def test_gaussian_odd_count_prefix():
    s1 = Stream(5).gaussians(7)
    s2 = Stream(5).gaussians(8)
    assert np.array_equal(s1, s2[:7])


def test_bits_are_balanced():
    b = Stream(11).bits(100_000)
    assert set(np.unique(b)) <= {0, 1}
    assert abs(b.mean() - 0.5) < 0.01


def test_gamma_constant():
    assert int(GAMMA) == 0x9E3779B97F4A7C15


@pytest.mark.parametrize("start, count", [
    (0, 2**63), (0, 2**62), (0, 2.5), (0, -1), (0, None), (2**64 - 5, 5),
], ids=["count-2**63", "count-2**62", "count-2.5", "count-negative", "count-none",
        "counter-2**64"])
def test_raw_words_refuses_what_it_cannot_draw(start, count):
    # 2**63 gave an empty array, 2.5 three words and -1 a bare ValueError
    with pytest.raises(ValidationError, match="must be an integer at least 0") as info:
        raw_words(0, start, count)
    assert info.value.exit_code == 2


def test_raw_words_reach_the_last_counter():
    assert np.array_equal(raw_words(3, 2**64 - 5, 4)[:3], raw_words(3, 2**64 - 5, 3))


def test_stream_draws_refuse_counts_beyond_the_array_limit():
    for draw in (Stream(0).uniforms, Stream(0).gaussians, Stream(0).bits):
        with pytest.raises(ValidationError, match="count must be"):
            draw(2**63)
        with pytest.raises(ValidationError, match="count must be"):
            draw(-3)
