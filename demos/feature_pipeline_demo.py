"""Walk through the acoustic front-end stage by stage.

Synthesizes a short two-tone signal, then shows what pre-emphasis,
framing, windowing, the FFT, the mel filter bank and the DCT each do to
it, ending with the normalized MFCC matrix that the rest of the toolkit
consumes.
"""

import numpy as np

from voxid.audio import AudioClip
from voxid.features import (
    MfccConfig,
    apply_mel_filterbank,
    dct_cepstra,
    extract_mfcc,
    frame_signal,
    hamming_window,
    magnitude_spectrum,
    mel_filterbank,
    pre_emphasize,
)

RATE = 16000

# one second containing a 300 Hz hum plus a weaker 2.4 kHz whistle
t = np.arange(RATE) / RATE
samples = 0.4 * np.sin(2 * np.pi * 300 * t) + 0.1 * np.sin(2 * np.pi * 2400 * t)
clip = AudioClip(samples=samples, sample_rate_hz=RATE)
config = MfccConfig()

print(f"clip: {clip.samples.size} samples at {clip.sample_rate_hz} Hz")

emphasized = pre_emphasize(clip.samples, config.pre_emphasis_alpha)
print(f"pre-emphasis (alpha={config.pre_emphasis_alpha}) boosts the whistle:")
print(f"  raw RMS {np.sqrt(np.mean(samples**2)):.4f}  "
      f"emphasized RMS {np.sqrt(np.mean(emphasized**2)):.4f}")

frames = frame_signal(emphasized, config, RATE)
print(f"framing: {frames.shape[0]} frames of {frames.shape[1]} samples "
      f"({config.frame_length_ms} ms / {config.frame_shift_ms} ms shift)")

windowed = hamming_window(frames)
dft_size = config.effective_dft_size(RATE)
spectrum = magnitude_spectrum(windowed[0], dft_size)
peak_bin = int(np.argmax(spectrum[1:]) + 1)
print(f"spectrum of frame 0: {spectrum.size} bins, peak at bin {peak_bin} "
      f"(~{peak_bin * RATE / dft_size:.0f} Hz)")

bank = mel_filterbank(config.num_mel_filters, dft_size, RATE)
log_energies = apply_mel_filterbank(spectrum, bank)
print(f"mel filter bank: {bank.shape[0]} triangles; "
      f"busiest filter is #{int(np.argmax(log_energies))}")

cepstra = dct_cepstra(log_energies, config.num_cepstra)
print(f"first {config.num_cepstra} cepstra of frame 0:")
print("  " + " ".join(f"{c:7.3f}" for c in cepstra))

feats = extract_mfcc(clip, config)
print(f"full pipeline: {feats.count_L} x {feats.dim_k} feature matrix")
# the mean's digits are round-off that changes with the BLAS kernel, so only its bound prints
print(f"after CMVN, per-coordinate means ~0: max |mean| < 1e-9: "
      f"{bool(np.max(np.abs(feats.frames.mean(axis=0))) < 1e-9)}")
