import base64
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from voxid import store
from voxid.cli import EXIT_DATA, EXIT_OK
from voxid.cli import main as cli_main
from voxid.errors import (
    CorruptArtifact,
    DimensionMismatch,
    IoFailure,
    UnsupportedVersion,
    WrongKind,
)
from voxid.evaluation import (
    EvalReport,
    RegistryEntry,
    SpeakerRegistry,
    TrialResult,
)
from voxid.features import FeatureMatrix
from voxid.gmm import DiagonalGmm
from voxid.speaker_models import BaumWelchStats, SpeakerModel, Ubm, map_adapt
from voxid.total_variability import IVector, TotalVariabilityModel


def random_gmm(rng, components=3, dim=2):
    weights = rng.uniform(0.1, 1.0, components)
    weights /= weights.sum()
    return DiagonalGmm(
        weights=weights,
        means=rng.normal(0, 3, (components, dim)),
        variances=rng.uniform(0.2, 2.0, (components, dim)),
    )


def random_artifact(kind, rng):
    if kind == "features":
        # VOXF1 stores float32; use values representable at that precision
        return FeatureMatrix(rng.normal(0, 1, (10, 4)).astype(np.float32))
    if kind == "gmm":
        return random_gmm(rng)
    if kind == "ubm":
        return Ubm(gmm=random_gmm(rng))
    if kind == "speaker_model":
        return SpeakerModel(speaker_id="spk", gmm=random_gmm(rng))
    if kind == "tv_model":
        return TotalVariabilityModel(
            m=rng.normal(0, 1, 6), sigma=rng.uniform(0.5, 1.5, 6),
            t_matrix=rng.normal(0, 0.1, (6, 2)), num_components=3, dim_k=2,
        )
    if kind == "ivector":
        return IVector(w=rng.normal(0, 1, 4))
    if kind == "registry":
        registry = SpeakerRegistry()
        registry.add(RegistryEntry(
            speaker_id="a", cluster_id="c0",
            model=SpeakerModel(speaker_id="a", gmm=random_gmm(rng)),
            ivector=IVector(rng.normal(0, 1, 3)), language_tag="Bengali",
        ))
        registry.add(RegistryEntry(
            speaker_id="b", cluster_id="c1",
            model=SpeakerModel(speaker_id="b", gmm=random_gmm(rng)),
            is_impostor=True,
        ))
        return registry
    if kind == "report":
        return EvalReport(
            per_trial=[TrialResult(
                trial_id="t0", true_speaker_id="a",
                ranked=[("a", rng.normal(), 2.2, True), ("b", rng.normal(), 0.4, False)],
            )],
            threshold=1.0, mode="llr-normalized",
            false_accepts=0, false_rejects=0, eer=0.0, top1_accuracy=1.0,
        )
    raise AssertionError(kind)


def assert_equal_artifact(kind, a, b):
    if kind == "features":
        assert np.array_equal(a.frames, b.frames)
    elif kind in ("gmm", "ubm", "speaker_model"):
        ga = a.gmm if hasattr(a, "gmm") else a
        gb = b.gmm if hasattr(b, "gmm") else b
        assert np.array_equal(ga.weights, gb.weights)
        assert np.array_equal(ga.means, gb.means)
        assert np.array_equal(ga.variances, gb.variances)
        if kind == "speaker_model":
            assert a.speaker_id == b.speaker_id
    elif kind == "tv_model":
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.t_matrix, b.t_matrix)
    elif kind == "ivector":
        assert np.array_equal(a.w, b.w)
    elif kind == "registry":
        assert len(a.entries) == len(b.entries)
        for ea, eb in zip(a.entries, b.entries):
            assert ea.speaker_id == eb.speaker_id
            assert ea.cluster_id == eb.cluster_id
            assert ea.language_tag == eb.language_tag
            assert ea.is_impostor == eb.is_impostor
            assert ea.model.speaker_id == eb.model.speaker_id
            assert np.array_equal(ea.model.gmm.weights, eb.model.gmm.weights)
            assert np.array_equal(ea.model.gmm.means, eb.model.gmm.means)
            assert np.array_equal(ea.model.gmm.variances, eb.model.gmm.variances)
            if ea.ivector is None:
                assert eb.ivector is None
            else:
                assert np.array_equal(ea.ivector.w, eb.ivector.w)
    elif kind == "report":
        assert a.per_trial == b.per_trial
        assert a.threshold == b.threshold
        assert a.eer == b.eer


@pytest.mark.parametrize("kind", store.KINDS)
def test_round_trip(kind, tmp_path):
    rng = np.random.default_rng(17)
    for i in range(8):
        artifact = random_artifact(kind, rng)
        path = tmp_path / f"{kind}-{i}"
        store.save(artifact, kind, path)
        loaded = store.load(path, kind)
        assert_equal_artifact(kind, artifact, loaded)


def test_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(18)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for kind in ("gmm", "registry"):  # decimal strings, and raw sections
        artifact = random_artifact(kind, rng)
        store.save(artifact, kind, a)
        store.save(artifact, kind, b)
        assert a.read_bytes() == b.read_bytes()


def test_unwritable_path(tmp_path):
    rng = np.random.default_rng(19)
    with pytest.raises(IoFailure):
        store.save(random_gmm(rng), "gmm", tmp_path / "missing-dir" / "x.json")


def test_wrong_kind(tmp_path):
    rng = np.random.default_rng(20)
    path = tmp_path / "g.json"
    store.save(random_gmm(rng), "gmm", path)
    with pytest.raises(WrongKind):
        store.load(path, "ubm")


def test_unsupported_version(tmp_path):
    # one past the newest version each JSON kind reads
    past_newest = {"gmm": 2, "ubm": 4, "speaker_model": 4, "tv_model": 4, "ivector": 4,
                   "registry": 5, "report": 2}
    assert set(past_newest) == set(store.KINDS) - {"features"}
    rng = np.random.default_rng(21)
    path = tmp_path / "a.json"
    for kind, version_past in past_newest.items():
        store.save(random_artifact(kind, rng), kind, path)
        document, body = read_artifact(path)
        for version in (0, version_past):
            document["format_version"] = version
            write_artifact(path, document, body)
            with pytest.raises(UnsupportedVersion):
                store.load(path, kind)


def test_corrupt_weights_gate(tmp_path):
    rng = np.random.default_rng(22)
    path = tmp_path / "g.json"
    store.save(random_gmm(rng), "gmm", path)
    document = json.loads(path.read_text())
    document["payload"]["weights"][0] = repr(0.001)  # sum now far from 1
    path.write_text(json.dumps(document))
    with pytest.raises(CorruptArtifact):
        store.load(path, "gmm")


def test_not_json(tmp_path):
    path = tmp_path / "junk"
    path.write_bytes(b"\x00\x01\x02")
    with pytest.raises(CorruptArtifact):
        store.load(path, "gmm")


def test_missing_file():
    with pytest.raises(IoFailure):
        store.load("/nonexistent/g.json", "gmm")


def test_truncated_features(tmp_path):
    rng = np.random.default_rng(23)
    feats = FeatureMatrix(rng.normal(0, 1, (5, 3)).astype(np.float32))
    path = tmp_path / "f.feat"
    store.save(feats, "features", path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CorruptArtifact):
        store.load(path, "features")


def test_non_finite_features(tmp_path):
    path = tmp_path / "nan.feat"
    store.save(FeatureMatrix(np.ones((2, 2))), "features", path)
    data = bytearray(path.read_bytes())
    data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptArtifact):
        store.load(path, "features")


@pytest.mark.parametrize("value", [1e39, -3.5e38])
def test_features_beyond_float32_are_not_written(value, tmp_path):
    # cast to float32 they would be written as inf, which load rejects as corrupt
    path = tmp_path / "big.feat"
    with pytest.raises(DimensionMismatch, match="float32"):
        store.save(FeatureMatrix(np.array([[value, 0.0]])), "features", path)
    assert not list(tmp_path.iterdir())
    edge = np.array([[np.finfo(np.float32).max, -np.finfo(np.float32).max]])
    store.save(FeatureMatrix(edge), "features", path)
    assert np.array_equal(store.load(path, "features").frames, edge)


def test_zero_dimension_features(tmp_path):
    # 50 frames of 0 coordinates: the header and the length agree, but no feature exists
    path = tmp_path / "empty.feat"
    path.write_bytes(b"VOXF1" + struct.pack("<II", 0, 50))
    with pytest.raises(CorruptArtifact, match="dimension is 0"):
        store.load(path, "features")


def test_zero_dimension_features_are_not_written(tmp_path):
    # frames of 0 coordinates would be a 13-byte file that load rejects as corrupt
    with pytest.raises(DimensionMismatch, match="dimension is 0"):
        store.save(FeatureMatrix(np.zeros((5, 0))), "features", tmp_path / "empty.feat")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("kind, field", [
    ("ubm", "weights"), ("ubm", "means"), ("ubm", "variances"),
    ("tv_model", "m"), ("tv_model", "sigma"),
])
def test_non_finite_model_parameters(kind, field, value, tmp_path):
    """Decimal strings "nan" and "inf" parse, so version 1 must reject them."""
    path = tmp_path / "model.json"
    document = v1_document(kind, random_artifact(kind, np.random.default_rng(25)))
    values = document["payload"][field]
    (values[0] if isinstance(values[0], list) else values)[0] = value
    path.write_text(json.dumps(document))
    with pytest.raises(CorruptArtifact):
        store.load(path, kind)


def test_failed_write_leaves_no_temp_file(tmp_path):
    rng = np.random.default_rng(24)
    (tmp_path / "taken").mkdir()
    with pytest.raises(IoFailure):
        store.save(random_gmm(rng), "gmm", tmp_path / "taken")
    assert not list(tmp_path.glob(".voxid-*"))


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
def test_new_artifacts_take_the_umask_mode(umask, tmp_path, monkeypatch):
    # as open() would create them, not mkstemp's owner-only 0600
    path = tmp_path / "f.feat"
    old = os.umask(umask)
    try:
        monkeypatch.setattr(os, "umask", None)  # the process-wide umask is left alone
        store.save(random_artifact("features", np.random.default_rng(0)), "features", path)
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("mode", [0o600, 0o644, 0o640], ids=oct)
def test_rewritten_artifacts_keep_their_mode(mode, tmp_path):
    path = tmp_path / "f.feat"
    store.save(random_artifact("features", np.random.default_rng(0)), "features", path)
    os.chmod(path, mode)
    old = os.umask(0o022)
    try:
        store.save(random_artifact("features", np.random.default_rng(1)), "features", path)
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == mode


def test_short_writes_are_completed(tmp_path, monkeypatch):
    rng = np.random.default_rng(25)
    gmm = random_gmm(rng)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:7])))
    store.save(gmm, "gmm", tmp_path / "g.json")
    monkeypatch.undo()
    assert_equal_artifact("gmm", gmm, store.load(tmp_path / "g.json", "gmm"))


# --- registry format v2: entries over one shared block -----------------------

def registry_of(*gmms):
    registry = SpeakerRegistry()
    for i, gmm in enumerate(gmms):
        sid = f"s{i}"
        registry.add(RegistryEntry(speaker_id=sid, cluster_id="c",
                                   model=SpeakerModel(speaker_id=sid, gmm=gmm)))
    return registry


def adapted_registry(ubm, rng, count):
    """Speakers MAP-adapted from `ubm`, so they share its weights and variances."""
    registry = SpeakerRegistry()
    c, k = ubm.gmm.means.shape
    for i in range(count):
        stats = BaumWelchStats(rng.uniform(0.0, 20.0, c), rng.normal(0, 5, (c, k)))
        model = map_adapt(stats, ubm, speaker_id=f"old{i}")
        registry.add(RegistryEntry(speaker_id=f"old{i}", cluster_id=f"c{i}", model=model,
                                   ivector=IVector(rng.normal(0, 1, 3)), language_tag="Hindi",
                                   is_impostor=bool(i % 2)))
    return registry


def decimal(array):
    """An array as versions 1 and 2 store it: nested lists of repr strings."""
    return [decimal(row) for row in array] if array.ndim == 2 else [repr(v) for v in array.tolist()]


def f8(array):
    """An array as model version 2 and registry version 3 store it: base64 of its bytes."""
    array = np.asarray(array, dtype="<f8")
    return {"shape": list(array.shape), "f8": base64.b64encode(array.tobytes()).decode("ascii")}


def v1_document(kind, artifact, array=decimal):
    """A model artifact as version 1 writes it, every array as decimal strings; with
    `array=f8`, the payload of version 2."""
    if kind == "ivector":
        payload = {"w": array(artifact.w)}
    elif kind == "tv_model":
        payload = {"m": array(artifact.m), "sigma": array(artifact.sigma),
                   "t_matrix": array(artifact.t_matrix),
                   "num_components": artifact.num_components, "dim_k": artifact.dim_k}
    else:
        gmm = artifact.gmm if hasattr(artifact, "gmm") else artifact
        payload = {name: array(getattr(gmm, name)) for name in ("weights", "means", "variances")}
        if kind == "speaker_model":
            payload["speaker_id"] = artifact.speaker_id
    return {"kind": kind, "format_version": 1, "payload": payload}


def v2_document(kind, artifact):
    """A model artifact as version 2 writes it: every array as a base64 record."""
    return v1_document(kind, artifact, f8) | {"format_version": 2}


def v1_registry_document(registry, array=decimal):
    """A registry as version 1 writes it: every entry carries its whole mixture, every
    array as `array` encodes it."""
    entries = []
    for e in registry.entries:
        entry = {
            "speaker_id": e.speaker_id, "cluster_id": e.cluster_id,
            "language_tag": e.language_tag, "is_impostor": e.is_impostor,
            "model": v1_document("speaker_model", e.model, array)["payload"],
        }
        if e.ivector is not None:
            entry["ivector"] = array(e.ivector.w)
        entries.append(entry)
    return {"kind": "registry", "format_version": 1, "payload": {"entries": entries}}


def v2_registry_document(registry, array=decimal):
    """A registry as version 2 writes it: decimal strings (or what `array` encodes) over
    one shared block."""
    document = v1_registry_document(registry, array)
    first = registry.entries[0].model.gmm
    shared = {"weights": first.weights, "variances": first.variances}
    for e, entry in zip(registry.entries, document["payload"]["entries"]):
        for name, value in shared.items():
            if np.array_equal(getattr(e.model.gmm, name), value):
                del entry["model"][name]
    document["payload"]["shared"] = {name: array(a) for name, a in shared.items()}
    document["format_version"] = 2
    return document


def v3_registry_document(registry):
    """A registry as version 3 writes it: base64 records over one shared block."""
    return v2_registry_document(registry, f8) | {"format_version": 3}


def read_artifact(path):
    """A saved artifact's JSON envelope, from its first line, and the bytes after that line:
    the raw sections of a binary kind, nothing for `gmm` and `report`."""
    line, _, body = path.read_bytes().partition(b"\n")
    return json.loads(line), body


def write_artifact(path, document, body=b""):
    """`document` on one line, padded with spaces to 8 bytes as `save` pads it, then body."""
    header = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path.write_bytes(header + b" " * (-(len(header) + 1) % 8) + b"\n" + body)


def count_keys(node, key):
    if isinstance(node, dict):
        return sum((k == key) + count_keys(v, key) for k, v in node.items())
    if isinstance(node, list):
        return sum(count_keys(v, key) for v in node)
    return 0


def cli_world(tmp_path, rng, components=4, dim=3):
    """A UBM file and one small feature file for `voxid enroll`."""
    ubm = Ubm(gmm=random_gmm(rng, components, dim))
    store.save(ubm, "ubm", tmp_path / "ubm.json")
    store.save(FeatureMatrix(rng.normal(0, 2, (60, dim))), "features", tmp_path / "x.feat")
    return ubm, tmp_path / "ubm.json", tmp_path / "x.feat"


@pytest.mark.parametrize("gmms", [
    lambda rng: [random_gmm(rng, 3, 2), random_gmm(rng, 5, 2), random_gmm(rng, 2, 2)],
    lambda rng: [random_gmm(rng, 4, 3)] * 3,
    lambda rng: [],
], ids=["different-component-counts", "equal-to-shared", "empty"])
def test_registry_round_trip(gmms, tmp_path):
    registry = registry_of(*gmms(np.random.default_rng(30)))
    path = tmp_path / "r.json"
    store.save(registry, "registry", path)
    assert read_artifact(path)[0]["format_version"] == 4
    assert_equal_artifact("registry", registry, store.load(path, "registry"))


def test_registry_entries_share_the_shared_arrays(tmp_path):
    rng = np.random.default_rng(31)
    registry = adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 3)
    store.save(registry, "registry", tmp_path / "r.json")
    document, _ = read_artifact(tmp_path / "r.json")
    assert all(set(e["model"]) == {"speaker_id", "means"} for e in document["payload"]["entries"])
    loaded = [e.model.gmm for e in store.load(tmp_path / "r.json", "registry").entries]
    assert all(g.weights is loaded[0].weights for g in loaded)
    assert all(g.variances is loaded[0].variances for g in loaded)


def test_loaded_registry_arrays_are_copies_of_the_bytes_read(tmp_path):
    # the decoders return views of the bytes read, which each model copies once
    rng = np.random.default_rng(34)
    registry = adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 3)
    store.save(registry, "registry", tmp_path / "r.json")
    for entry in store.load(tmp_path / "r.json", "registry").entries:
        for array in (entry.model.gmm.means, entry.model.gmm.weights, entry.ivector.w):
            root = array
            while isinstance(root, (np.ndarray, memoryview)):
                root = root.base if isinstance(root, np.ndarray) else root.obj
            assert type(root) is bytes and len(root) == array.nbytes
            assert not array.flags.writeable


def test_registry_field_missing_without_shared_block(tmp_path):
    path = tmp_path / "r.json"
    store.save(registry_of(random_gmm(np.random.default_rng(32))), "registry", path)
    document, body = read_artifact(path)
    del document["payload"]["shared"]
    write_artifact(path, document, body)
    with pytest.raises(CorruptArtifact, match="lacks"):
        store.load(path, "registry")


@pytest.mark.parametrize("how", ["weights-sum", "variance-zero", "means-shape"])
def test_registry_shared_block_is_checked(how, tmp_path):
    # entries holding only means take the shared block as checked once, so a bad block
    # or means that do not fit it are still corrupt
    rng = np.random.default_rng(33)
    path = tmp_path / "r.json"
    store.save(adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 2), "registry", path)
    document, body = read_artifact(path)
    payload = document["payload"]
    node, key = {"weights-sum": (payload["shared"], "weights"),
                 "variance-zero": (payload["shared"], "variances"),
                 "means-shape": (payload["entries"][1]["model"], "means")}[how]
    record = node[key]
    values = np.frombuffer(body, "<f8", math.prod(record["shape"]), record["at"]).copy()
    if how == "weights-sum":
        values *= 1.5  # positive and finite, summing to 1.5
    elif how == "variance-zero":
        values[5] = 0.0
    else:
        values = values[:9]  # (3, 3) against the shared block's (4, 3)
        record["shape"] = [3, 3]
    body = bytearray(body)
    body[record["at"]:record["at"] + values.nbytes] = values.tobytes()
    write_artifact(path, document, bytes(body))
    message = {"weights-sum": "sum to 1", "variance-zero": "variances must be positive",
               "means-shape": "means of shape"}[how]
    with pytest.raises(CorruptArtifact, match=message):
        store.load(path, "registry")


def test_registry_entry_with_own_variances_round_trips(tmp_path):
    rng = np.random.default_rng(34)
    ubm = Ubm(gmm=random_gmm(rng, 4, 3))
    registry = adapted_registry(ubm, rng, 2)
    own = DiagonalGmm(weights=ubm.gmm.weights, means=rng.normal(0, 3, (4, 3)),
                      variances=rng.uniform(0.2, 2.0, (4, 3)))
    registry.add(RegistryEntry(speaker_id="own", cluster_id="c",
                               model=SpeakerModel(speaker_id="own", gmm=own)))
    path = tmp_path / "r.json"
    store.save(registry, "registry", path)
    entries = read_artifact(path)[0]["payload"]["entries"]
    assert set(entries[2]["model"]) == {"speaker_id", "means", "variances"}
    loaded = store.load(path, "registry").entries
    for ours, theirs in zip(registry.entries, loaded):
        for name in ("weights", "means", "variances"):
            a, b = getattr(ours.model.gmm, name), getattr(theirs.model.gmm, name)
            assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
    # an entry with variances of its own is built through the constructor, which copies
    assert not np.shares_memory(loaded[2].model.gmm.weights, loaded[0].model.gmm.weights)


# kind: (the version it writes, the number of raw sections it holds)
WRITTEN = {"gmm": (1, 0), "report": (1, 0), "ubm": (3, 3), "speaker_model": (3, 3),
           "tv_model": (3, 3), "ivector": (3, 1), "registry": (4, 7)}


def test_written_format_versions(tmp_path):
    """gmm and report stay decimal at version 1; every array of the binary
    kinds is a raw section, and none is base64."""
    rng = np.random.default_rng(33)
    for kind, expected in WRITTEN.items():
        store.save(random_artifact(kind, rng), kind, tmp_path / kind)
        document, body = read_artifact(tmp_path / kind)
        assert (document["format_version"], count_keys(document, "at")) == expected, kind
        assert count_keys(document, "f8") == 0
        assert (body == b"") == (kind in ("gmm", "report"))


@pytest.mark.parametrize("kind", ["ubm", "speaker_model", "tv_model", "ivector"])
def test_v1_model_loads_bit_identical(kind, tmp_path):
    rng = np.random.default_rng(48)
    path = tmp_path / "v1.json"
    for _ in range(4):
        artifact = random_artifact(kind, rng)
        path.write_text(json.dumps(v1_document(kind, artifact)))
        assert_equal_artifact(kind, artifact, store.load(path, kind))
        assert store.load_any(path)[1] == 1


@pytest.mark.parametrize("kind, version", [
    ("gmm", True), ("gmm", 1.0), ("gmm", "1"), ("ubm", 2.0), ("registry", 3.0), ("registry", 4.0),
])
def test_format_version_must_be_an_integer(kind, version, tmp_path):
    """JSON true and 1.0 equal 1 in Python, but name no version."""
    path = tmp_path / "a.json"
    store.save(random_artifact(kind, np.random.default_rng(49)), kind, path)
    document, body = read_artifact(path)
    document["format_version"] = version
    write_artifact(path, document, body)
    with pytest.raises(UnsupportedVersion):
        store.load(path, kind)


def test_v1_registry_loads_bit_identical(tmp_path):
    rng = np.random.default_rng(34)
    registry = adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 3)
    registry.add(RegistryEntry(speaker_id="other", cluster_id="c",
                               model=SpeakerModel(speaker_id="other", gmm=random_gmm(rng, 2, 3))))
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(v1_registry_document(registry)))
    assert_equal_artifact("registry", registry, store.load(path, "registry"))


def test_v2_registry_loads_bit_identical(tmp_path):
    rng = np.random.default_rng(41)
    registry = adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 3)
    registry.add(RegistryEntry(speaker_id="other", cluster_id="c",
                               model=SpeakerModel(speaker_id="other", gmm=random_gmm(rng, 2, 3))))
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(v2_registry_document(registry)))
    assert_equal_artifact("registry", registry, store.load(path, "registry"))


def enroll_into_old_registry(document, tmp_path):
    """`voxid enroll` into a registry written as `document` writes version 4
    and keeps every old entry bit for bit."""
    rng = np.random.default_rng(35)
    ubm, ubm_path, feat_path = cli_world(tmp_path, rng)
    old = adapted_registry(ubm, rng, 3)
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(document(old)))
    assert cli_main(["enroll", "--speaker-id", "new", "--registry", str(path),
                     "--ubm", str(ubm_path), str(feat_path)]) == EXIT_OK
    assert read_artifact(path)[0]["format_version"] == 4
    loaded = store.load(path, "registry")
    assert [e.speaker_id for e in loaded.entries] == ["old0", "old1", "old2", "new"]
    old.entries.append(loaded.entries[-1])
    assert_equal_artifact("registry", old, loaded)


def test_enroll_rewrites_v1_registry_as_v4(tmp_path):
    enroll_into_old_registry(v1_registry_document, tmp_path)


def test_enroll_rewrites_v2_registry_as_v4(tmp_path):
    enroll_into_old_registry(v2_registry_document, tmp_path)


def test_enroll_rewrites_v3_registry_as_v4(tmp_path):
    enroll_into_old_registry(v3_registry_document, tmp_path)


def test_shared_block_written_once(tmp_path):
    rng = np.random.default_rng(37)
    _, ubm_path, feat_path = cli_world(tmp_path, rng)
    path = tmp_path / "reg.json"
    for i in range(20):
        assert cli_main(["enroll", "--speaker-id", f"s{i}", "--registry", str(path),
                         "--ubm", str(ubm_path), str(feat_path)]) == EXIT_OK
    document, _ = read_artifact(path)
    assert len(document["payload"]["entries"]) == 20
    assert count_keys(document, "weights") == 1
    assert count_keys(document, "variances") == 1


@pytest.mark.parametrize("kind, field", [
    ("gmm", "means"), ("tv_model", "m"), ("tv_model", "t_matrix"), ("ivector", "w"),
    ("registry", "means"), ("registry", "ivector"),
])
def test_digit_string_is_not_an_array(kind, field, tmp_path):
    """A JSON string in place of a vector (or of a matrix row) must not be
    read one character per element: "0512" is not [0, 5, 1, 2]. Only older
    versions store decimal strings: a v2 registry, or a v1 document."""
    path = tmp_path / "a.json"
    artifact = random_artifact(kind, np.random.default_rng(38))
    document = v2_registry_document(artifact) if kind == "registry" else v1_document(kind, artifact)
    node = document["payload"]
    if kind == "registry":
        node = node["entries"][0]
        node = node["model"] if field == "means" else node

    def digits(values):
        return "".join(str(i % 10) for i in range(len(values)))
    value = node[field]
    node[field] = [digits(row) for row in value] if isinstance(value[0], list) else digits(value)
    path.write_text(json.dumps(document))
    with pytest.raises(CorruptArtifact):
        store.load(path, kind)


def test_decode_matches_float_bit_for_bit(tmp_path):
    rng = np.random.default_rng(39)
    special = [5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, -0.0, 0.0, 0.1, 1e16, 1e-5]
    values = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
    text = [repr(v) for v in special + values.tolist()]
    path = tmp_path / "iv.json"
    document = v1_document("ivector", IVector(np.zeros(1)))
    document["payload"]["w"] = text
    path.write_text(json.dumps(document))
    loaded = store.load(path, "ivector").w
    expected = np.array([float(v) for v in text], dtype=np.float64)
    assert np.array_equal(loaded.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("where", ["shared-weights", "entry-means", "registry-ivector", "ivector"])
def test_json_null_is_corrupt(where, tmp_path):
    kind = "ivector" if where == "ivector" else "registry"
    rng = np.random.default_rng(40)
    path = tmp_path / "a.json"
    if kind == "ivector":  # decimal strings: an i-vector of version 1
        document = v1_document(kind, random_artifact(kind, rng))
    else:  # decimal strings: a registry of version 2
        document = v2_registry_document(adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 2))
    payload = document["payload"]
    if where == "shared-weights":
        payload["shared"]["weights"][1] = None
    elif where == "entry-means":
        payload["entries"][1]["model"]["means"][0][2] = None
    elif where == "registry-ivector":
        payload["entries"][0]["ivector"][0] = None
    else:
        payload["w"][0] = None
    path.write_text(json.dumps(document))
    with pytest.raises(CorruptArtifact):
        store.load(path, kind)


def test_inspect_prints_the_format_version(tmp_path, capsys):
    rng = np.random.default_rng(47)
    registry = adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 2)
    store.save(registry, "registry", tmp_path / "v4.json")
    (tmp_path / "v3.json").write_text(json.dumps(v3_registry_document(registry)))
    (tmp_path / "v2.json").write_text(json.dumps(v2_registry_document(registry)))
    for version in (2, 3, 4):
        assert cli_main(["inspect", str(tmp_path / f"v{version}.json")]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["kind: registry", f"format_version: {version}"]
        assert "  old1 cluster=c1 (impostor)" in out
    store.save(FeatureMatrix(np.ones((2, 2))), "features", tmp_path / "f.feat")
    assert cli_main(["inspect", str(tmp_path / "f.feat")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["kind: features", "frames: 2 x 2"]


# --- registry format v3: arrays as base64 float64 records ------------------

def corrupt_record(record, how):
    """`record` damaged as `how` names; returns what the document holds instead."""
    data = base64.b64decode(record["f8"])
    if how == "null":
        return None
    if how == "digit-string":
        return "".join(str(i % 10) for i in range(len(data) // 8))
    if how == "not-base64":
        record["f8"] = "!" + record["f8"][1:]
    elif how == "eight-bytes-short":
        record["f8"] = base64.b64encode(data[:-8]).decode("ascii")
    elif how == "wrong-rank":  # same byte count: (l, k) as (l*k,), (l,) as (l, 1)
        shape = record["shape"]
        record["shape"] = [shape[0] * shape[1]] if len(shape) == 2 else shape + [1]
    elif how in ("missing-shape", "missing-f8"):
        del record[how.split("-")[1]]
    else:  # a non-finite first value
        record["f8"] = base64.b64encode(np.array([float(how)], "<f8").tobytes()
                                        + data[8:]).decode("ascii")
    return record


@pytest.mark.parametrize("how", ["null", "digit-string", "not-base64", "eight-bytes-short",
                                 "wrong-rank", "missing-shape", "missing-f8", "nan", "inf"])
@pytest.mark.parametrize("where", ["shared-weights", "shared-variances", "entry-means",
                                   "own-weights", "registry-ivector"])
def test_bad_v3_record_is_corrupt(where, how, tmp_path):
    rng = np.random.default_rng(42)
    registry = adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 2)
    registry.add(RegistryEntry(speaker_id="other", cluster_id="c",
                               model=SpeakerModel(speaker_id="other", gmm=random_gmm(rng, 2, 3))))
    path = tmp_path / "r.json"
    document = v3_registry_document(registry)
    payload = document["payload"]
    node, key = {
        "shared-weights": (payload["shared"], "weights"),
        "shared-variances": (payload["shared"], "variances"),
        "entry-means": (payload["entries"][1]["model"], "means"),
        "own-weights": (payload["entries"][2]["model"], "weights"),
        "registry-ivector": (payload["entries"][0], "ivector"),
    }[where]
    node[key] = corrupt_record(node[key], how)
    path.write_text(json.dumps(document))
    with pytest.raises(CorruptArtifact):
        store.load(path, "registry")


@pytest.mark.parametrize("how", ["null", "digit-string", "not-base64", "eight-bytes-short",
                                 "wrong-rank", "missing-shape", "missing-f8", "nan", "inf"])
@pytest.mark.parametrize("kind, field", [
    ("ubm", "weights"), ("ubm", "means"), ("ubm", "variances"), ("speaker_model", "means"),
    ("tv_model", "m"), ("tv_model", "sigma"), ("tv_model", "t_matrix"), ("ivector", "w"),
])
def test_bad_v2_record_is_corrupt(kind, field, how, tmp_path):
    path = tmp_path / "a.json"
    document = v2_document(kind, random_artifact(kind, np.random.default_rng(50)))
    payload = document["payload"]
    payload[field] = corrupt_record(payload[field], how)
    path.write_text(json.dumps(document))
    with pytest.raises(CorruptArtifact):
        store.load(path, kind)


def test_v3_round_trip_is_bit_exact_at_the_edges(tmp_path):
    """A version 3 registry loads bit for bit, and so does the version 4 that `save`
    writes of it, which a second save repeats byte for byte."""
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                      -1.7976931348623157e308])
    rng = np.random.default_rng(44)
    gmms = []
    for components in (2, 5, 3):  # entries differ in component count
        gmm = random_gmm(rng, components, 3)
        means = gmm.means.copy()
        means.flat[:edges.size] = edges[:means.size]
        variances = gmm.variances.copy()
        variances.flat[:3] = [5e-324, 1.7976931348623157e308, 2.2250738585072014e-308]
        weights = np.full(components, 1.0 / components)
        weights[-1] = 5e-324
        weights[0] += 1.0 - weights.sum()
        gmms.append(DiagonalGmm(weights=weights, means=means, variances=variances))
    registry = registry_of(*gmms)
    for entry in registry.entries:
        entry.ivector = IVector(np.concatenate([edges, rng.normal(0, 1, 2)]))
    v3, v4 = tmp_path / "v3.json", tmp_path / "v4.json"
    v3.write_text(json.dumps(v3_registry_document(registry)))
    store.save(store.load(v3, "registry"), "registry", v4)
    for path in (v3, v4):
        loaded = store.load(path, "registry")
        for a, b in zip(registry.entries, loaded.entries):
            for name in ("weights", "means", "variances"):
                original, reread = getattr(a.model.gmm, name), getattr(b.model.gmm, name)
                assert original.shape == reread.shape
                assert np.array_equal(original.view(np.uint64), reread.view(np.uint64))
            assert np.array_equal(a.ivector.w.view(np.uint64), b.ivector.w.view(np.uint64))
    store.save(store.load(v4, "registry"), "registry", tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == v4.read_bytes()


# --- raw sections: registry v4 and model v3 ----------------------------------

def test_v4_sections_are_little_endian_float64(tmp_path):
    """The header line ends on an 8-byte boundary, and the body is each array's
    little-endian float64 bytes, back to back in payload order: the shared block, then
    each entry's means and i-vector."""
    rng = np.random.default_rng(43)
    registry = adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 2)
    path = tmp_path / "r.json"
    store.save(registry, "registry", path)
    data = path.read_bytes()
    document, body = read_artifact(path)
    assert (len(data) - len(body)) % 8 == 0
    payload = document["payload"]

    def decode(record):
        return np.frombuffer(body, "<f8", math.prod(record["shape"]), record["at"]).reshape(
            record["shape"])
    first = registry.entries[0]
    assert np.array_equal(decode(payload["shared"]["weights"]), first.model.gmm.weights)
    assert np.array_equal(decode(payload["shared"]["variances"]), first.model.gmm.variances)
    records = [payload["shared"]["weights"], payload["shared"]["variances"]]
    for e, entry in zip(registry.entries, payload["entries"]):
        assert np.array_equal(decode(entry["model"]["means"]), e.model.gmm.means)
        assert np.array_equal(decode(entry["ivector"]), e.ivector.w)
        records += [entry["model"]["means"], entry["ivector"]]
    sizes = [8 * math.prod(r["shape"]) for r in records]
    assert [r["at"] for r in records] == np.cumsum([0] + sizes[:-1]).tolist()
    assert sum(sizes) == len(body)


def section_artifact(where, tmp_path):
    """A saved artifact of raw sections, its envelope and body, and the dict and key of
    the record that `where` names."""
    rng = np.random.default_rng(51)
    kind, *keys = where.split("/")
    if kind == "registry":
        artifact = adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 2)
        artifact.add(RegistryEntry(speaker_id="other", cluster_id="c", model=SpeakerModel(
            speaker_id="other", gmm=random_gmm(rng, 2, 3))))
    else:
        artifact = random_artifact(kind, rng)
    path = tmp_path / "a.json"
    store.save(artifact, kind, path)
    document, body = read_artifact(path)
    node = document["payload"]
    for key in keys[:-1]:
        node = node[int(key) if key.isdigit() else key]
    return kind, path, document, body, node, keys[-1]


SECTION_WHERE = ["ubm/weights", "ubm/means", "ubm/variances", "speaker_model/means",
                 "tv_model/m", "tv_model/sigma", "tv_model/t_matrix", "ivector/w",
                 "registry/shared/weights", "registry/shared/variances",
                 "registry/entries/1/model/means", "registry/entries/2/model/weights",
                 "registry/entries/0/ivector"]


@pytest.mark.parametrize("how", ["null", "digit-string", "base64-record", "wrong-rank",
                                 "negative-shape", "missing-shape", "missing-at",
                                 "negative-at", "float-at", "string-at", "unaligned-at",
                                 "at-past-the-end", "nan", "inf"])
@pytest.mark.parametrize("where", SECTION_WHERE)
def test_bad_section_record_is_corrupt(where, how, tmp_path):
    kind, path, document, body, node, key = section_artifact(where, tmp_path)
    record = node[key]
    if how == "null":
        node[key] = None
    elif how == "digit-string":
        node[key] = "0123"
    elif how == "base64-record":  # the record of the older version, in the newer
        node[key] = f8(np.frombuffer(body, "<f8", math.prod(record["shape"]), record["at"]))
    elif how == "wrong-rank":  # same byte count: (l, k) as (l*k,), (l,) as (l, 1)
        shape = record["shape"]
        record["shape"] = [shape[0] * shape[1]] if len(shape) == 2 else shape + [1]
    elif how == "negative-shape":
        record["shape"] = [-n for n in record["shape"]]
    elif how in ("missing-shape", "missing-at"):
        del record[how.split("-")[1]]
    elif how == "negative-at":
        record["at"] = -8
    elif how == "float-at":
        record["at"] = float(record["at"])
    elif how == "string-at":
        record["at"] = str(record["at"])
    elif how == "unaligned-at":
        record["at"] += 4
    elif how == "at-past-the-end":
        record["at"] = len(body)
    else:  # a non-finite first value
        body = bytearray(body)
        body[record["at"]:record["at"] + 8] = np.array([float(how)], "<f8").tobytes()
        body = bytes(body)
    write_artifact(path, document, body)
    with pytest.raises(CorruptArtifact, match="body's end" if how == "at-past-the-end" else None):
        store.load(path, kind)


@pytest.mark.parametrize("how", ["truncated-body", "bytes-after-the-last-section",
                                 "header-not-json", "header-on-many-lines"])
@pytest.mark.parametrize("kind", ["ubm", "speaker_model", "tv_model", "ivector", "registry"])
def test_damaged_raw_file_is_corrupt(kind, how, tmp_path, capsys):
    path = tmp_path / "a.json"
    store.save(random_artifact(kind, np.random.default_rng(52)), kind, path)
    document, body = read_artifact(path)
    if how == "truncated-body":
        write_artifact(path, document, body[:-8])
    elif how == "bytes-after-the-last-section":
        write_artifact(path, document, body + bytes(8))
    elif how == "header-not-json":
        path.write_bytes(b"{" + path.read_bytes())
    else:
        path.write_bytes(json.dumps(document, indent=2).encode("ascii") + b"\n" + body)
    with pytest.raises(CorruptArtifact):
        store.load(path, kind)
    assert cli_main(["inspect", str(path)]) == EXIT_DATA
    assert "CorruptArtifact" in capsys.readouterr().err


def test_sections_over_the_whole_body_in_any_order_load(tmp_path):
    """Offsets, not order, place the sections: a writer may lay them out in any order."""
    rng = np.random.default_rng(53)
    tv = random_artifact("tv_model", rng)
    path = tmp_path / "tv.json"
    store.save(tv, "tv_model", path)
    document, body = read_artifact(path)
    payload = document["payload"]
    names = ["t_matrix", "m", "sigma"]  # saved as m, sigma, t_matrix
    at, chunks = 0, []
    for name in names:
        record = payload[name]
        size = 8 * math.prod(record["shape"])
        chunks.append(body[record["at"]:record["at"] + size])
        record["at"], at = at, at + size
    write_artifact(path, document, b"".join(chunks))
    assert_equal_artifact("tv_model", tv, store.load(path, "tv_model"))


def test_raw_section_envelope_is_one_line(tmp_path):
    """The body starts after the envelope's line, so a multi-line envelope has none,
    even where no array needs one."""
    path = tmp_path / "r.json"
    store.save(SpeakerRegistry(), "registry", path)
    document, body = read_artifact(path)
    assert body == b""
    path.write_text(json.dumps(document, indent=2))
    with pytest.raises(CorruptArtifact, match="one line"):
        store.load(path, "registry")


OLDER_VERSIONS = [("gmm", 1), ("report", 1), ("ubm", 1), ("ubm", 2), ("speaker_model", 1),
                  ("speaker_model", 2), ("tv_model", 1), ("tv_model", 2), ("ivector", 1),
                  ("ivector", 2), ("registry", 1), ("registry", 2), ("registry", 3)]


@pytest.mark.parametrize("kind, version", OLDER_VERSIONS)
def test_older_versions_load_bit_identical(kind, version, tmp_path):
    """Every version before the one `save` writes still loads, compact on one line or
    pretty-printed over many."""
    rng = np.random.default_rng(54)
    artifact = (adapted_registry(Ubm(gmm=random_gmm(rng, 4, 3)), rng, 3) if kind == "registry"
                else random_artifact(kind, rng))
    path = tmp_path / "old.json"
    if kind in ("gmm", "report"):  # the version `save` still writes
        store.save(artifact, kind, path)
        document = json.loads(path.read_text())
    elif kind == "registry":
        document = (v1_registry_document, v2_registry_document,
                    v3_registry_document)[version - 1](artifact)
    else:
        document = (v1_document, v2_document)[version - 1](kind, artifact)
    assert document["format_version"] == version
    for text in (json.dumps(document), json.dumps(document, indent=2)):
        path.write_text(text + "\n")
        assert store.load_any(path)[1] == version
        assert_equal_artifact(kind, artifact, store.load(path, kind))
    path.write_text(json.dumps(document) + "\n{}")
    with pytest.raises(CorruptArtifact):  # as before, nothing may follow the document
        store.load(path, kind)


ENROLL_LOOP = """
import sys
from voxid.cli import main
registry, ubm, feat, tag = sys.argv[1:]
for i in range(20):
    code = main(["enroll", "--speaker-id", f"{tag}{i}", "--registry", registry, "--ubm", ubm, feat])
    if code:
        sys.exit(code)
"""


def test_concurrent_enrolls_lose_no_entries(tmp_path):
    _, ubm_path, feat_path = cli_world(tmp_path, np.random.default_rng(45))
    registry = tmp_path / "reg.json"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    workers = [subprocess.Popen([sys.executable, "-W", "error", "-c", ENROLL_LOOP, str(registry),
                                 str(ubm_path), str(feat_path), tag], env=env)
               for tag in ("a", "b")]
    assert [w.wait(timeout=300) for w in workers] == [EXIT_OK, EXIT_OK]
    ids = {e.speaker_id for e in store.load(registry, "registry").entries}
    assert ids == {f"{tag}{i}" for tag in "ab" for i in range(20)}


def test_enroll_without_the_lock_is_an_io_failure(tmp_path, capsys):
    _, ubm_path, feat_path = cli_world(tmp_path, np.random.default_rng(46))
    registry = tmp_path / "reg.json"
    (tmp_path / "reg.json.lock").mkdir()  # cannot be opened for writing
    assert cli_main(["enroll", "--speaker-id", "s", "--registry", str(registry),
                     "--ubm", str(ubm_path), str(feat_path)]) == 2
    assert "IoFailure" in capsys.readouterr().err
    assert not registry.exists()
