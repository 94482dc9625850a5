"""PCM audio ingestion: RIFF/WAVE parsing to a canonical in-memory clip.

Only 16-bit PCM at 4, 8 or 16 kHz is accepted. Unsupported rates are
rejected rather than resampled, since resampling would silently change
the extracted features. Multichannel audio is averaged to mono.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyAudio,
    MalformedContainer,
    UnsupportedEncoding,
    UnsupportedSampleRate,
)

SUPPORTED_RATES = (4000, 8000, 16000)

_PCM_SCALE = 32768.0


@dataclass(frozen=True)
class AudioClip:
    """Mono PCM signal with amplitudes in [-1, 1]."""

    samples: np.ndarray  # float64, shape (n,)
    sample_rate_hz: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz not in SUPPORTED_RATES:
            raise UnsupportedSampleRate(
                f"sample rate {self.sample_rate_hz} not in {SUPPORTED_RATES}"
            )
        if samples.size == 0:
            raise EmptyAudio("clip has no samples")
        if samples.ndim != 1:
            raise MalformedContainer("samples must be one-dimensional")
        if not np.all(np.abs(samples) <= 1.0):  # NaN fails the comparison too
            raise MalformedContainer("amplitudes not finite or outside [-1, 1]")


def _iter_chunks(data: bytes):
    """Yield (chunk_id, payload) pairs from the body of a RIFF file."""
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload = data[pos + 8:pos + 8 + size]
        if len(payload) < size:
            raise MalformedContainer(f"chunk {cid!r} truncated")
        yield cid, payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def read_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file into an AudioClip.

    Requires 16-bit little-endian PCM; samples are scaled by 1/32768 and
    multichannel frames are averaged to a single channel.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MalformedContainer(f"cannot read {path}: {exc}") from exc

    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedContainer(f"{path} is not a RIFF/WAVE file")

    fmt = None
    pcm = None
    for cid, payload in _iter_chunks(data):
        if cid == b"fmt ":
            fmt = payload
        elif cid == b"data":
            pcm = payload
    if fmt is None or pcm is None:
        raise MalformedContainer("missing fmt or data chunk")
    if len(fmt) < 16:
        raise MalformedContainer("fmt chunk too short")

    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if audio_format != 1 or bits != 16:
        raise UnsupportedEncoding(
            f"only PCM 16-bit supported (format={audio_format}, bits={bits})"
        )
    if channels < 1:
        raise MalformedContainer("zero channels declared")
    if rate not in SUPPORTED_RATES:
        raise UnsupportedSampleRate(f"sample rate {rate} not in {SUPPORTED_RATES}")

    frame_bytes = 2 * channels
    if len(pcm) % frame_bytes != 0:
        raise MalformedContainer("data chunk size not a whole number of frames")
    if len(pcm) == 0:
        raise EmptyAudio(f"{path} contains no samples")

    raw = np.frombuffer(pcm, dtype="<i2").astype(np.float64)
    if channels > 1:
        raw = raw.reshape(-1, channels).mean(axis=1)
    return AudioClip(samples=raw / _PCM_SCALE, sample_rate_hz=rate)


def write_wav(clip: AudioClip, path) -> None:
    """Write the clip as mono PCM-16 LE, clipping to the representable range.

    The write is atomic; a failed one raises `IoFailure` and leaves no file.
    """
    from .store import _atomic_write  # store imports features, which imports audio

    ints = np.clip(np.round(clip.samples * _PCM_SCALE), -32768, 32767)
    pcm = ints.astype("<i2").tobytes()
    fmt = struct.pack(
        "<HHIIHH", 1, 1, clip.sample_rate_hz, clip.sample_rate_hz * 2, 2, 16
    )
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    _atomic_write(path, b"RIFF" + struct.pack("<I", len(body)) + body)
