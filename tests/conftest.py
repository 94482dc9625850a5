import pickle

import numpy as np
import pytest

from voxid.audio import AudioClip, write_wav


@pytest.fixture
def make_clip_wav(tmp_path):
    """Factory writing seeded noise WAVs; returns the file path."""

    def _make(name, seed=0, seconds=1.0, rate=8000, bias=0.0):
        rng = np.random.default_rng(seed)
        samples = np.clip(rng.uniform(-0.5, 0.5, int(seconds * rate)) + bias, -1, 32767 / 32768)
        clip = AudioClip(samples=samples, sample_rate_hz=rate)
        path = tmp_path / name
        write_wav(clip, path)
        return path

    return _make


@pytest.fixture(params=["owner-set-writeable-again", "read-only-memoryview-of-bytearray",
                        "read-only-view-of-unpickled-array"])
def caller_memory(request):
    """Factory for a read-only float64 array whose memory its caller can still write:
    (a) an array that owns its memory, set read-only, (b) a view of a read-only
    memoryview of a bytearray, or (c) a read-only view of an unpickled array, which numpy
    leaves writeable over the pickle's bytes. make(values) returns (array, add); add(x)
    adds x to the memory, in (a) by setting the array writeable again."""

    def make(values):
        values = np.array(values, dtype=np.float64)
        if request.param == "owner-set-writeable-again":
            array = values.copy()
            array.flags.writeable = False

            def add(x):
                array.flags.writeable = True
                array[...] += x
        elif request.param == "read-only-memoryview-of-bytearray":
            memory = bytearray(values.tobytes())
            array = np.frombuffer(memoryview(memory).toreadonly()).reshape(values.shape)

            def add(x):
                np.frombuffer(memory)[:] += x
        else:  # padded past 1000 bytes, below which numpy unpickles into memory of its own
            unpickled = pickle.loads(pickle.dumps(np.resize(values, values.size + 125), 4))
            assert type(unpickled.base) is bytes and unpickled.flags.writeable
            array = unpickled[:values.size].reshape(values.shape)
            array.flags.writeable = False

            def add(x):
                unpickled[:values.size] += x
        return array, add

    return make
