import numpy as np
import pytest

from voxid.audio import AudioClip
from voxid.errors import (
    DimensionMismatch,
    FrameTooShort,
    InvalidDftSize,
    SignalTooShort,
)
from voxid.features import (
    LOG_ENERGY_FLOOR,
    FeatureMatrix,
    MfccConfig,
    apply_mel_filterbank,
    cmvn,
    dct_cepstra,
    dct_matrix,
    extract_mfcc,
    fft_radix2,
    frame_signal,
    hamming_window,
    hz_to_mel,
    magnitude_spectrum,
    mel_filterbank,
    mel_to_hz,
    pre_emphasize,
)


def direct_dft(x):
    """O(N^2) reference transform."""
    n = len(x)
    m = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for k in range(n)])


class TestPreEmphasis:
    def test_constant_signal(self):
        out = pre_emphasize([1.0, 1.0, 1.0], 0.97)
        assert out == pytest.approx([1.0, 0.03, 0.03])

    def test_alpha_zero_identity(self):
        x = np.array([0.3, -0.2, 0.9])
        assert np.array_equal(pre_emphasize(x, 0.0), x)

    def test_impulse(self):
        assert pre_emphasize([1.0, 0.0, 0.0], 0.97) == pytest.approx([1.0, -0.97, 0.0])


class TestFraming:
    config = MfccConfig()

    def test_single_frame(self):
        frames = frame_signal(np.zeros(400), self.config, 16000)
        assert frames.shape == (1, 400)

    def test_frame_starts(self):
        x = np.arange(720.0)
        frames = frame_signal(x, self.config, 16000)
        assert frames.shape == (3, 400)
        assert frames[0, 0] == 0 and frames[1, 0] == 160 and frames[2, 0] == 320

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            frame_signal(np.zeros(399), self.config, 16000)


class TestHamming:
    def test_endpoint(self):
        out = hamming_window(np.ones(5))
        assert out[0] == pytest.approx(0.08)

    def test_midpoint_odd_length(self):
        out = hamming_window(np.ones(9))
        assert out[4] == pytest.approx(1.0)

    def test_symmetry(self):
        out = hamming_window(np.ones(32))
        assert np.allclose(out, out[::-1])

    def test_too_short(self):
        with pytest.raises(FrameTooShort):
            hamming_window(np.ones(1))


class TestSpectrum:
    def test_impulse_flat(self):
        spec = magnitude_spectrum([1.0], 8)
        assert spec.shape == (5,)
        assert np.allclose(spec, 1.0)

    def test_zero_frame(self):
        assert np.all(magnitude_spectrum(np.zeros(8), 8) == 0.0)

    def test_pure_cosine_at_bin(self):
        n = 64
        m0 = 5
        x = np.cos(2 * np.pi * m0 * np.arange(n) / n)
        spec = magnitude_spectrum(x, n)
        oracle = np.abs(direct_dft(x))[: n // 2 + 1]
        assert np.allclose(spec, oracle, atol=1e-9)
        assert spec[m0] == pytest.approx(n / 2)
        others = np.delete(spec, [m0])
        assert np.max(others[1:]) < 1e-9

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(64)
            fast = fft_radix2(x)
            slow = direct_dft(x)
            assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.standard_normal(128)
            spec = fft_radix2(x)
            time_energy = np.sum(x * x)
            freq_energy = np.sum(np.abs(spec) ** 2) / len(x)
            assert abs(time_energy - freq_energy) / time_energy < 1e-9

    def test_invalid_sizes(self):
        with pytest.raises(InvalidDftSize):
            magnitude_spectrum(np.zeros(10), 12)
        with pytest.raises(InvalidDftSize):
            magnitude_spectrum(np.zeros(32), 16)


class TestMelFilterbank:
    def test_mel_scale_values(self):
        assert hz_to_mel(0.0) == 0.0
        # direct evaluation of 2595 log10(1 + 1000/700)
        assert hz_to_mel(1000.0) == pytest.approx(999.9855371396244, abs=1e-9)

    def test_zero_spectrum_hits_floor(self):
        bank = mel_filterbank(26, 512, 16000)
        out = apply_mel_filterbank(np.zeros(257), bank)
        assert np.allclose(out, np.log(LOG_ENERGY_FLOOR))

    def test_rows_positive_and_overlapping(self):
        bank = mel_filterbank(26, 512, 16000)
        assert np.all(bank.sum(axis=1) > 0)
        # every bin between the first and last center carries weight
        centers = [int(np.argmax(row)) for row in bank]
        weight = bank.sum(axis=0)
        assert np.all(weight[centers[0]: centers[-1] + 1] > 0)

    def test_rate_changes_centers(self):
        bank8 = mel_filterbank(20, 256, 8000)
        bank16 = mel_filterbank(20, 256, 16000)
        assert not np.allclose(bank8, bank16)

    def test_dimension_mismatch(self):
        bank = mel_filterbank(26, 512, 16000)
        with pytest.raises(DimensionMismatch):
            apply_mel_filterbank(np.zeros(100), bank)


class TestDct:
    def test_constant_input(self):
        j = 20
        out = dct_cepstra(np.full(j, 3.0), j)
        assert out[0] == pytest.approx(3.0 * np.sqrt(j))
        assert np.max(np.abs(out[1:])) < 1e-12

    def test_orthonormal_inverse(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(26)
        basis = dct_matrix(26)
        recovered = basis.T @ (basis @ x)
        assert np.max(np.abs(recovered - x)) < 1e-10

    def test_zero_input(self):
        assert np.all(dct_cepstra(np.zeros(26), 13) == 0.0)

    def test_too_many_cepstra(self):
        with pytest.raises(DimensionMismatch):
            dct_cepstra(np.zeros(10), 11)


class TestExtractMfcc:
    def _clip(self, seed=0, seconds=1.0, rate=16000):
        rng = np.random.default_rng(seed)
        return AudioClip(samples=rng.uniform(-0.5, 0.5, int(seconds * rate)),
                         sample_rate_hz=rate)

    def test_cmvn_statistics(self):
        feats = extract_mfcc(self._clip())
        assert np.max(np.abs(feats.frames.mean(axis=0))) < 1e-9
        assert np.max(np.abs(feats.frames.var(axis=0) - 1.0)) < 1e-6

    def test_deterministic(self):
        clip = self._clip(seed=5)
        a = extract_mfcc(clip)
        b = extract_mfcc(clip)
        assert np.array_equal(a.frames, b.frames)

    def test_frame_count_one_second(self):
        feats = extract_mfcc(self._clip())
        assert feats.count_L == 98  # floor((16000 - 400) / 160) + 1
        assert feats.dim_k == 13

    def test_rate_honesty(self):
        rng = np.random.default_rng(9)
        samples = rng.uniform(-0.5, 0.5, 16000)
        a = extract_mfcc(AudioClip(samples=samples, sample_rate_hz=16000))
        b = extract_mfcc(AudioClip(samples=samples, sample_rate_hz=8000))
        n = min(a.count_L, b.count_L)
        assert not np.allclose(a.frames[:n], b.frames[:n])


def test_feature_matrix_invariants():
    with pytest.raises(DimensionMismatch):
        FeatureMatrix(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        FeatureMatrix(np.array([[np.inf, 0.0]]))


class TestFrontEndOracle:
    """The front-end against a loop-by-loop reference chain."""

    @staticmethod
    def ref_frames(x, flen, shift):
        return np.array([x[s:s + flen] for s in range(0, x.size - flen + 1, shift)])

    @staticmethod
    def ref_spectrum(frames, dft_size):
        pad = [(0, 0)] * (frames.ndim - 1) + [(0, dft_size - frames.shape[-1])]
        padded = np.pad(frames, pad).reshape(-1, dft_size)
        half = [np.abs(direct_dft(row))[: dft_size // 2 + 1] for row in padded]
        return np.array(half).reshape(frames.shape[:-1] + (dft_size // 2 + 1,))

    @staticmethod
    def ref_bank(num_filters, dft_size, rate):
        edges_mel = np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2.0), num_filters + 2)
        edges = mel_to_hz(edges_mel)
        freqs = np.arange(dft_size // 2 + 1) * rate / dft_size
        bank = np.zeros((num_filters, freqs.size))
        for j in range(num_filters):
            lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
            rising = (freqs - lo) / (mid - lo)
            falling = (hi - freqs) / (hi - mid)
            bank[j] = np.maximum(0.0, np.minimum(rising, falling))
        return bank

    @pytest.mark.parametrize("rate", [4000, 8000, 16000, 22050])
    @pytest.mark.parametrize("length_ms, shift_ms", [(25, 10), (20, 20), (32, 7.5)])
    def test_frames_bit_identical(self, rate, length_ms, shift_ms):
        config = MfccConfig(frame_length_ms=length_ms, frame_shift_ms=shift_ms)
        flen, shift = config.frame_length_samples(rate), config.frame_shift_samples(rate)
        for n in (flen, flen + shift - 1, flen + shift, rate + 7):
            x = np.random.default_rng(n).standard_normal(n)
            frames = frame_signal(x, config, rate)
            assert np.array_equal(frames, self.ref_frames(x, flen, shift))
            frames[0, 0] = 1e9  # a new writable array, not a view of x
            assert x[0] != 1e9

    @pytest.mark.parametrize("rate", [4000, 8000, 16000, 22050])
    @pytest.mark.parametrize("num_filters, dft_size", [(1, 64), (20, 256), (26, 512), (40, 512)])
    def test_bank_bit_identical(self, rate, num_filters, dft_size):
        bank = mel_filterbank(num_filters, dft_size, rate)
        assert np.array_equal(bank, self.ref_bank(num_filters, dft_size, rate))

    def test_dft_size_is_next_power_of_two(self):
        for length_ms in (0.1, 0.125, 1.0, 16.0, 25.0, 32.0, 32.1, 64.0):
            config = MfccConfig(frame_length_ms=length_ms, frame_shift_ms=0.1)
            for rate in (4000, 8000, 16000, 22050):
                size = 1
                while size < config.frame_length_samples(rate):
                    size *= 2
                assert config.effective_dft_size(rate) == size

    def test_dft_size_shorter_than_the_frame(self):
        config = MfccConfig(dft_size=64)
        assert config.effective_dft_size(2560) == 64  # a 64-sample frame
        with pytest.raises(ValueError, match="dft_size = 64 is shorter than the 200-sample "
                                             "frame at 8000 Hz"):
            config.effective_dft_size(8000)

    @pytest.mark.parametrize("frame_len, dft_size", [(64, 64), (50, 64), (100, 128), (1, 8)])
    def test_batched_spectrum(self, frame_len, dft_size):
        frames = np.random.default_rng(frame_len).standard_normal((2, 3, frame_len))
        spec = magnitude_spectrum(frames, dft_size)
        assert spec.shape == (2, 3, dft_size // 2 + 1)
        assert np.max(np.abs(spec - self.ref_spectrum(frames, dft_size))) < 1e-12

    @pytest.mark.parametrize("rate", [4000, 8000, 16000])
    def test_extract_mfcc(self, rate):
        config = MfccConfig()
        samples = np.random.default_rng(rate).uniform(-0.5, 0.5, rate // 2)
        feats = extract_mfcc(AudioClip(samples=samples, sample_rate_hz=rate), config)

        dft_size = config.effective_dft_size(rate)
        x = pre_emphasize(samples, config.pre_emphasis_alpha)
        flen, shift = config.frame_length_samples(rate), config.frame_shift_samples(rate)
        spec = self.ref_spectrum(hamming_window(self.ref_frames(x, flen, shift)), dft_size)
        energies = spec ** 2 @ self.ref_bank(config.num_mel_filters, dft_size, rate).T
        log_energies = np.log(np.maximum(energies, LOG_ENERGY_FLOOR))
        ref = cmvn(dct_cepstra(log_energies, config.num_cepstra))
        assert np.max(np.abs(feats.frames - ref)) <= 1e-12 * np.max(np.abs(ref))
