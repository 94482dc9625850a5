import json
import os

import numpy as np
import pytest

from voxid import store
from voxid.errors import CorruptArtifact, IoFailure, UnsupportedVersion, WrongKind
from voxid.evaluation import (
    EvalReport,
    RegistryEntry,
    SpeakerRegistry,
    TrialResult,
)
from voxid.features import FeatureMatrix
from voxid.gmm import DiagonalGmm
from voxid.speaker_models import SpeakerModel, Ubm
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
            assert np.array_equal(ea.model.gmm.means, eb.model.gmm.means)
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
    gmm = random_gmm(rng)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    store.save(gmm, "gmm", a)
    store.save(gmm, "gmm", b)
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
    rng = np.random.default_rng(21)
    path = tmp_path / "g.json"
    store.save(random_gmm(rng), "gmm", path)
    document = json.loads(path.read_text())
    document["format_version"] = 2
    path.write_text(json.dumps(document))
    with pytest.raises(UnsupportedVersion):
        store.load(path, "gmm")


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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("kind, field", [
    ("ubm", "weights"), ("ubm", "means"), ("ubm", "variances"),
    ("tv_model", "m"), ("tv_model", "sigma"),
])
def test_non_finite_model_parameters(kind, field, value, tmp_path):
    path = tmp_path / "model.json"
    store.save(random_artifact(kind, np.random.default_rng(25)), kind, path)
    document = json.loads(path.read_text())
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


def test_short_writes_are_completed(tmp_path, monkeypatch):
    rng = np.random.default_rng(25)
    gmm = random_gmm(rng)
    real_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:7])))
    store.save(gmm, "gmm", tmp_path / "g.json")
    monkeypatch.undo()
    assert_equal_artifact("gmm", gmm, store.load(tmp_path / "g.json", "gmm"))
