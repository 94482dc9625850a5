"""MFCC front-end: pre-emphasis, framing, Hamming window, FFT,
mel filter bank, log, DCT and per-utterance mean/variance normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import AudioClip
from .errors import (
    DimensionMismatch,
    EmptyFeatureMatrix,
    FrameTooShort,
    InvalidDftSize,
    SignalTooShort,
)

LOG_ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class MfccConfig:
    pre_emphasis_alpha: float = 0.97
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    dft_size: int | None = None  # None: next power of two >= frame length
    num_mel_filters: int = 26
    num_cepstra: int = 13
    apply_cmvn: bool = True

    def __post_init__(self):
        if not 0.0 <= self.pre_emphasis_alpha < 1.0:
            raise ValueError("pre_emphasis_alpha must be in [0, 1)")
        if not 0.0 < self.frame_shift_ms <= self.frame_length_ms < np.inf:
            raise ValueError("need 0 < frame_shift_ms <= frame_length_ms < inf")
        if not 1 <= self.num_cepstra <= self.num_mel_filters:
            raise ValueError("need 1 <= num_cepstra <= num_mel_filters")
        if self.dft_size is not None and not _is_pow2(self.dft_size):
            raise ValueError("dft_size must be a power of two")

    def frame_length_samples(self, rate: int) -> int:
        return int(round(self.frame_length_ms * rate / 1000.0))

    def frame_shift_samples(self, rate: int) -> int:
        shift = int(round(self.frame_shift_ms * rate / 1000.0))
        if shift < 1:
            raise ValueError(
                f"frame_shift_ms = {self.frame_shift_ms:g} is under one sample at {rate} Hz"
            )
        return shift

    def effective_dft_size(self, rate: int) -> int:
        frame = self.frame_length_samples(rate)
        if self.dft_size is None:
            return 1 << max(frame - 1, 0).bit_length()
        if self.dft_size < frame:
            raise ValueError(f"dft_size = {self.dft_size} is shorter than the {frame}-sample "
                             f"frame at {rate} Hz")
        return self.dft_size


@dataclass(frozen=True)
class FeatureMatrix:
    """Ordered sequence of feature vectors; rows are frames."""

    frames: np.ndarray  # float64, shape (count_L, dim_k)

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2:
            raise DimensionMismatch("frames must be a 2-D array")
        if not np.all(np.isfinite(frames)):
            raise DimensionMismatch("frames must be finite")
        object.__setattr__(self, "frames", frames)

    @property
    def dim_k(self) -> int:
        return self.frames.shape[1]

    @property
    def count_L(self) -> int:
        return self.frames.shape[0]

    def require_nonempty(self):
        if self.count_L < 1:
            raise EmptyFeatureMatrix("feature matrix has no frames")


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def pre_emphasize(signal, alpha: float) -> np.ndarray:
    """y[0] = x[0]; y[n] = x[n] - alpha * x[n-1]."""
    x = np.asarray(signal, dtype=np.float64)
    y = x.copy()
    y[1:] -= alpha * x[:-1]
    return y


def frame_signal(signal, config: MfccConfig, rate: int) -> np.ndarray:
    """Slice the signal into overlapping frames (trailing partial dropped)."""
    x = np.asarray(signal, dtype=np.float64)
    flen = config.frame_length_samples(rate)
    shift = config.frame_shift_samples(rate)
    if flen < 2:  # a setting that cannot frame this rate, before hamming_window's FrameTooShort
        raise ValueError(f"frame_length_ms = {config.frame_length_ms:g} is under two samples "
                         f"at {rate} Hz")
    if x.size < flen:
        raise SignalTooShort(f"{x.size} samples < one {flen}-sample frame")
    return np.lib.stride_tricks.sliding_window_view(x, flen)[::shift].copy()


def hamming_window(frame) -> np.ndarray:
    """Apply w[n] = 0.54 - 0.46 cos(2 pi n / (N-1))."""
    x = np.asarray(frame, dtype=np.float64)
    n = x.shape[-1]
    if n < 2:
        raise FrameTooShort("window needs at least 2 samples")
    w = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    return x * w


def fft_radix2(x) -> np.ndarray:
    """FFT along the last axis of a power-of-two-length signal (numpy's FFT)."""
    a = np.asarray(x, dtype=np.complex128)
    n = a.shape[-1]
    if not _is_pow2(n):
        raise InvalidDftSize(f"length {n} is not a power of two")
    return np.fft.fft(a)


def magnitude_spectrum(frame, dft_size: int) -> np.ndarray:
    """One-sided magnitude spectrum (dft_size/2 + 1 bins) of a zero-padded frame."""
    x = np.asarray(frame, dtype=np.float64)
    if x.shape[-1] > dft_size:
        raise InvalidDftSize("dft_size smaller than frame length")
    if not _is_pow2(dft_size):
        raise InvalidDftSize(f"dft_size {dft_size} is not a power of two")
    return np.abs(np.fft.rfft(x, n=dft_size))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(num_filters: int, dft_size: int, rate: int) -> np.ndarray:
    """Triangular filters with centers equally spaced in mel between 0 and rate/2.

    Returns a (num_filters, dft_size // 2 + 1) weight matrix.
    """
    edges_mel = np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2.0), num_filters + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_freqs = np.arange(dft_size // 2 + 1) * rate / dft_size
    lo, mid, hi = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (bin_freqs - lo) / (mid - lo)
    falling = (hi - bin_freqs) / (hi - mid)
    return np.maximum(0.0, np.minimum(rising, falling))


def apply_mel_filterbank(spectrum, bank: np.ndarray) -> np.ndarray:
    """Log filter-bank energies from a one-sided magnitude spectrum.

    Energies are computed against the power spectrum and floored before
    the log so silent frames stay finite.
    """
    spec = np.asarray(spectrum, dtype=np.float64)
    if spec.shape[-1] != bank.shape[1]:
        raise DimensionMismatch(
            f"spectrum has {spec.shape[-1]} bins, bank expects {bank.shape[1]}"
        )
    energies = spec ** 2 @ bank.T
    return np.log(np.maximum(energies, LOG_ENERGY_FLOOR))


def dct_cepstra(log_energies, num_cepstra: int) -> np.ndarray:
    """First num_cepstra coefficients of the orthonormal DCT-II."""
    x = np.asarray(log_energies, dtype=np.float64)
    n_filters = x.shape[-1]
    if num_cepstra > n_filters:
        raise DimensionMismatch("num_cepstra exceeds filter count")
    basis = dct_matrix(n_filters)[:num_cepstra]
    return x @ basis.T


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis; row q is s(q) cos(pi q (j + 0.5) / n)."""
    q = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    mat = np.cos(np.pi * q * (j + 0.5) / n)
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


def cmvn(frames: np.ndarray) -> np.ndarray:
    """Per-coordinate zero mean, unit variance over the utterance."""
    mean = frames.mean(axis=0)
    std = frames.std(axis=0)
    std = np.where(std > 1e-12, std, 1.0)
    return (frames - mean) / std


def extract_mfcc(clip: AudioClip, config: MfccConfig | None = None) -> FeatureMatrix:
    """Full front-end: AudioClip -> FeatureMatrix of MFCC rows."""
    if config is None:
        config = MfccConfig()
    rate = clip.sample_rate_hz
    dft_size = config.effective_dft_size(rate)

    emphasized = pre_emphasize(clip.samples, config.pre_emphasis_alpha)
    frames = frame_signal(emphasized, config, rate)
    windowed = hamming_window(frames)
    spectra = magnitude_spectrum(windowed, dft_size)
    bank = mel_filterbank(config.num_mel_filters, dft_size, rate)
    log_energies = apply_mel_filterbank(spectra, bank)
    cepstra = dct_cepstra(log_energies, config.num_cepstra)
    if config.apply_cmvn:
        cepstra = cmvn(cepstra)
    return FeatureMatrix(cepstra)
