"""Tests for the SplitMix64 generator: recorded draws and huge bounds."""

import pytest

from intrinsiclinks.rng import SplitMix64

# First four draws of randrange(n) from fresh generators.  Every seeded
# instance, apex and direction depends on these one-word draws staying fixed.
RECORDED = {
    2: {0: [1, 0, 1, 0], 1: [1, 1, 0, 1], 2013: [1, 1, 0, 1]},
    2001: {0: [223, 525, 1108, 1738], 1: [1682, 1819, 735, 1262], 2013: [441, 340, 798, 1032]},
    2**64: {
        0: [16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444],
        1: [10451216379200822465, 13757245211066428519, 17911839290282890590, 8196980753821780235],
        2013: [7157021033590197681, 6998332210456020085, 6246689124384998118, 13360261482384538791],
    },
}


@pytest.mark.parametrize("n", sorted(RECORDED))
def test_randrange_recorded_values(n):
    for seed, want in RECORDED[n].items():
        rng = SplitMix64(seed)
        assert [rng.randrange(n) for _ in range(4)] == want


@pytest.mark.parametrize("n", [2**64 + 1, 3 * 2**64, 2**128, 2**200 + 12345])
def test_randrange_beyond_64_bits_in_range(n):
    rng = SplitMix64(11)
    draws = [rng.randrange(n) for _ in range(50)]
    assert all(0 <= d < n for d in draws)
    assert any(d > n // 2 for d in draws)


def test_randrange_two_words_joined_high_first():
    rng, ref = SplitMix64(3), SplitMix64(3)
    hi, lo = ref.next_u64(), ref.next_u64()
    # 2**128 is a power of two: nothing is rejected, the draw is the raw words
    assert rng.randrange(2**128) == (hi << 64) | lo


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)
