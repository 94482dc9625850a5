import struct

import numpy as np
import pytest

from voxid.audio import AudioClip, read_wav, write_wav
from voxid.errors import (
    EmptyAudio,
    IoFailure,
    MalformedContainer,
    UnsupportedEncoding,
    UnsupportedSampleRate,
)


def make_wav(path, samples, rate=16000, channels=1, audio_format=1, bits=16,
             truncate_data=0):
    """Hand-rolled WAV writer so tests do not depend on the code under test."""
    pcm = struct.pack(f"<{len(samples)}h", *samples)
    if truncate_data:
        pcm = pcm[:-truncate_data]
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_mono_16k_passthrough(tmp_path):
    path = tmp_path / "a.wav"
    make_wav(path, list(range(-100, 100)) * 80, rate=16000)
    clip = read_wav(path)
    assert clip.sample_rate_hz == 16000
    assert clip.samples.size == 16000


def test_scaling_extremes(tmp_path):
    path = tmp_path / "a.wav"
    make_wav(path, [-32768, 32767])
    clip = read_wav(path)
    assert clip.samples[0] == -1.0
    assert clip.samples[1] == 32767 / 32768


def test_stereo_averaged_to_mono(tmp_path):
    path = tmp_path / "a.wav"
    make_wav(path, [1000, -1000, 500, 500], channels=2)
    clip = read_wav(path)
    assert clip.samples[0] == 0.0
    assert clip.samples[1] == pytest.approx(500 / 32768)


def test_unsupported_rate(tmp_path):
    path = tmp_path / "a.wav"
    make_wav(path, [0, 1, 2], rate=44100)
    with pytest.raises(UnsupportedSampleRate):
        read_wav(path)


def test_non_pcm_rejected(tmp_path):
    path = tmp_path / "a.wav"
    make_wav(path, [0, 1], audio_format=3)
    with pytest.raises(UnsupportedEncoding):
        read_wav(path)


def test_empty_data_chunk(tmp_path):
    path = tmp_path / "a.wav"
    make_wav(path, [])
    with pytest.raises(EmptyAudio):
        read_wav(path)


def test_not_riff(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(MalformedContainer):
        read_wav(path)


def test_truncated_data_is_malformed(tmp_path):
    path = tmp_path / "a.wav"
    make_wav(path, [1, 2, 3], truncate_data=1)
    with pytest.raises(MalformedContainer):
        read_wav(path)


def test_round_trip_within_quantization_step(tmp_path):
    rng = np.random.default_rng(7)
    clip = AudioClip(samples=rng.uniform(-1, 32767 / 32768, 800), sample_rate_hz=8000)
    path = tmp_path / "rt.wav"
    write_wav(clip, path)
    back = read_wav(path)
    assert back.sample_rate_hz == 8000
    assert np.max(np.abs(back.samples - clip.samples)) <= 1 / 32768


def test_failed_write_leaves_no_file(tmp_path):
    clip = AudioClip(samples=np.zeros(80), sample_rate_hz=8000)
    with pytest.raises(IoFailure):
        write_wav(clip, tmp_path / "missing" / "a.wav")
    taken = tmp_path / "taken.wav"
    taken.mkdir()  # the rename onto a directory fails after the data is written
    with pytest.raises(IoFailure):
        write_wav(clip, taken)
    assert [p.name for p in tmp_path.rglob("*")] == ["taken.wav"]


def test_clip_invariants():
    with pytest.raises(UnsupportedSampleRate):
        AudioClip(samples=np.zeros(4), sample_rate_hz=22050)
    with pytest.raises(EmptyAudio):
        AudioClip(samples=np.zeros(0), sample_rate_hz=8000)
    with pytest.raises(MalformedContainer):
        AudioClip(samples=np.array([2.0]), sample_rate_hz=8000)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(MalformedContainer):
            AudioClip(samples=np.array([0.5, bad]), sample_rate_hz=8000)
