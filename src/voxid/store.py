"""Versioned on-disk artifacts.

Models, registries and reports are JSON documents with a top-level
{kind, format_version, payload} envelope. Arrays are stored one of two
ways, both bit-exact on the round trip:

- decimal: nested lists of full-precision decimal strings (the repr of
  each float). `gmm` and `report` (format_version 1) store every real
  number this way, as do version 1 of `ubm`, `speaker_model`, `tv_model`
  and `ivector` and versions 1 and 2 of `registry`.
- binary: one record {"shape": [...], "f8": base64 of the C-order
  little-endian float64 bytes}, which decodes without parsing a number.
  `ubm`, `speaker_model`, `tv_model` and `ivector` (format_version 2) and
  `registry` (format_version 3) store every array they hold this way;
  integers and strings stay plain JSON.

`_JSON_KINDS` has one row per kind: its payload codecs and the array
codec of each version it reads. `save` writes the newest version, and
files of older versions still load bit for bit. Binary records load as
read-only arrays.

A registry (versions 2 and 3) holds the first entry's weights and
variances once, as "shared"; each entry's model holds its means, plus
weights or variances only where they differ from "shared". The shared
block is checked once, as one mixture, and an entry holding only means
is that mixture about its means (`DiagonalGmm.with_means`). A field an
entry lacks comes from "shared", so version 1 registries, whose entries
carry every field, load through the same code. `locked` serialises the
read-modify-write of one registry across processes.

Feature matrices use the binary VOXF1 layout: magic "VOXF1", dim_k and
count_L as uint32 LE, then count_L * dim_k float32 LE values row-major;
a frame value beyond float32's range raises `DimensionMismatch`, unsaved.
All writes are atomic (temp file + rename).
"""

from __future__ import annotations

import base64
import contextlib
import fcntl
import functools
import json
import math
import os
import stat
import struct

import numpy as np

from .errors import (
    CorruptArtifact,
    DimensionMismatch,
    IoFailure,
    UnsupportedVersion,
    WrongKind,
)
from .evaluation import EvalReport, RegistryEntry, SpeakerRegistry, TrialResult
from .features import FeatureMatrix
from .gmm import DiagonalGmm
from .speaker_models import SpeakerModel, Ubm
from .total_variability import IVector, TotalVariabilityModel

_GMM_NDIM = {"weights": 1, "means": 2, "variances": 2}
_MAGIC = b"VOXF1"


def _open_temp(directory):
    """Create a new temp file as open() would: mode 0666 less the umask."""
    while True:
        tmp = os.path.join(directory, f".voxid-{os.urandom(8).hex()}")
        with contextlib.suppress(FileExistsError):
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp


def _atomic_write(path, data: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = _open_temp(directory)
        try:
            with contextlib.suppress(FileNotFoundError):  # a rewrite keeps the old mode
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            view = memoryview(data)
            while view:  # os.write may write fewer bytes than asked
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# --- numeric encoding -------------------------------------------------------

def _enc(value):
    """Floats become repr strings (bit-exact round-trip); arrays become lists."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, np.ndarray):
        return [_enc(v) for v in value.tolist()]
    if isinstance(value, list):
        return [_enc(v) for v in value]
    return value


def _dec(data, ndim: int) -> np.ndarray:
    """A whole (nested) list of decimal strings as one float64 array."""
    try:
        array = np.array(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise CorruptArtifact(f"bad numeric array: {exc}") from exc
    if array.ndim != ndim:
        raise CorruptArtifact(f"expected a {ndim}-D numeric array, found {array.ndim}-D")
    return array


def _f8(array) -> dict:
    """One array as a record: its shape and the base64 of its float64 bytes."""
    array = np.asarray(array, dtype="<f8")
    return {"shape": list(array.shape), "f8": base64.b64encode(array.tobytes()).decode("ascii")}


def _dec_f8(record, ndim: int) -> np.ndarray:
    """A {shape, f8} record as one (read-only) float64 array, bit for bit."""
    if not isinstance(record, dict):
        raise CorruptArtifact(f"expected a {{shape, f8}} record, found {type(record).__name__}")
    missing = {"shape", "f8"} - record.keys()
    if missing:
        raise CorruptArtifact(f"record lacks {sorted(missing)}")
    shape, data = record["shape"], base64.b64decode(record["f8"], validate=True)
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n >= 0 for n in shape)):
        raise CorruptArtifact(f"expected a {ndim}-D shape, found {shape!r}")
    if len(data) != 8 * math.prod(shape):
        raise CorruptArtifact(f"shape {shape} needs {8 * math.prod(shape)} bytes, found {len(data)}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


# --- feature matrices (binary) ----------------------------------------------

def write_features(feats: FeatureMatrix, path):
    header = _MAGIC + struct.pack("<II", feats.dim_k, feats.count_L)
    try:
        with np.errstate(over="raise"):  # a frame past float32's range would load as inf
            body = feats.frames.astype("<f4").tobytes()
    except FloatingPointError as exc:
        raise DimensionMismatch("frames must fit float32") from exc
    _atomic_write(path, header + body)


def _features_from_bytes(data: bytes) -> FeatureMatrix:
    dim_k, count_l = struct.unpack_from("<II", data, 5)
    if dim_k == 0:
        raise ValueError("feature dimension is 0")
    expected = 13 + 4 * dim_k * count_l
    if len(data) != expected:
        raise ValueError(f"expected {expected} bytes, found {len(data)}")
    frames = np.frombuffer(data, dtype="<f4", offset=13).astype(np.float64)
    return FeatureMatrix(frames.reshape(count_l, dim_k))


# --- per-kind payload codecs -------------------------------------------------

# Each codec below takes `array`, the one function that encodes (`_enc` or
# `_f8`) or decodes (`_dec` or `_dec_f8`) every array of its kind's version.

def _gmm_payload(gmm: DiagonalGmm, array) -> dict:
    return {name: array(getattr(gmm, name)) for name in _GMM_NDIM}


def _gmm_from_payload(payload, array, shared=None) -> DiagonalGmm:
    """A payload holding only means takes the weights and variances of `shared`,
    a checked mixture; any other field it lacks is taken from `shared` too."""
    fields = {name: array(payload[name], ndim)
              for name, ndim in _GMM_NDIM.items() if name in payload}
    if shared is not None:
        if fields.keys() == {"means"}:
            return shared.with_means(fields["means"])
        fields = {"weights": shared.weights, "variances": shared.variances} | fields
    if fields.keys() != _GMM_NDIM.keys():
        raise CorruptArtifact(f"model lacks {sorted(_GMM_NDIM.keys() - fields)}")
    return DiagonalGmm(**fields)


def _speaker_payload(model: SpeakerModel, array) -> dict:
    payload = _gmm_payload(model.gmm, array)
    payload["speaker_id"] = model.speaker_id
    return payload


def _speaker_from_payload(payload, array, shared=None) -> SpeakerModel:
    return SpeakerModel(
        speaker_id=str(payload.get("speaker_id", "")),
        gmm=_gmm_from_payload(payload, array, shared),
    )


def _tv_payload(tv: TotalVariabilityModel, array) -> dict:
    return {
        "m": array(tv.m),
        "sigma": array(tv.sigma),
        "t_matrix": array(tv.t_matrix),
        "num_components": tv.num_components,
        "dim_k": tv.dim_k,
    }


def _tv_from_payload(payload, array) -> TotalVariabilityModel:
    return TotalVariabilityModel(
        m=array(payload["m"], 1),
        sigma=array(payload["sigma"], 1),
        t_matrix=array(payload["t_matrix"], 2),
        num_components=int(payload["num_components"]),
        dim_k=int(payload["dim_k"]),
    )


def _registry_payload(registry: SpeakerRegistry, array) -> dict:
    entries, shared = [], {}
    if registry.entries:
        first = registry.entries[0].model.gmm
        shared = {"weights": first.weights, "variances": first.variances}
    for e in registry.entries:
        model = {"speaker_id": e.model.speaker_id, "means": array(e.model.gmm.means)}
        for name, value in shared.items():
            own = getattr(e.model.gmm, name)
            if not np.array_equal(own, value):  # shape and every value
                model[name] = array(own)
        entry = {
            "speaker_id": e.speaker_id,
            "cluster_id": e.cluster_id,
            "model": model,
            "language_tag": e.language_tag,
            "is_impostor": e.is_impostor,
        }
        if e.ivector is not None:
            entry["ivector"] = array(e.ivector.w)
        entries.append(entry)
    return {"entries": entries, "shared": {name: array(a) for name, a in shared.items()}}


def _registry_from_payload(payload, array) -> SpeakerRegistry:
    block = {name: array(data, _GMM_NDIM[name]) for name, data in payload.get("shared", {}).items()}
    # checked once, as one mixture about zero means, which no entry takes
    shared = DiagonalGmm(means=np.zeros_like(block["variances"]), **block) if block else None
    registry = SpeakerRegistry()
    for entry in payload["entries"]:
        ivec = None
        if "ivector" in entry:
            ivec = IVector(w=array(entry["ivector"], 1))
        registry.add(
            RegistryEntry(
                speaker_id=str(entry["speaker_id"]),
                cluster_id=str(entry["cluster_id"]),
                model=_speaker_from_payload(entry["model"], array, shared),
                ivector=ivec,
                language_tag=str(entry.get("language_tag", "")),
                is_impostor=bool(entry.get("is_impostor", False)),
            )
        )
    return registry


def _report_payload(report: EvalReport, number) -> dict:
    return {
        "mode": report.mode,
        "threshold": number(report.threshold),
        "false_accepts": report.false_accepts,
        "false_rejects": report.false_rejects,
        "eer": number(report.eer),
        "top1_accuracy": number(report.top1_accuracy),
        "per_trial": [
            {
                "trial_id": r.trial_id,
                "true_speaker_id": r.true_speaker_id,
                "ranked": [
                    [sid, number(raw), number(norm), accepted]
                    for sid, raw, norm, accepted in r.ranked
                ],
            }
            for r in report.per_trial
        ],
    }


def _report_from_payload(payload) -> EvalReport:
    trials = [
        TrialResult(
            trial_id=str(t["trial_id"]),
            true_speaker_id=t.get("true_speaker_id"),
            ranked=[
                (str(sid), float(raw), float(norm), bool(accepted))
                for sid, raw, norm, accepted in t["ranked"]
            ],
        )
        for t in payload["per_trial"]
    ]
    return EvalReport(
        per_trial=trials,
        threshold=float(payload["threshold"]),
        mode=str(payload["mode"]),
        false_accepts=int(payload["false_accepts"]),
        false_rejects=int(payload["false_rejects"]),
        eer=float(payload["eer"]),
        top1_accuracy=float(payload["top1_accuracy"]),
    )


_DECIMAL, _BINARY = (_enc, _dec), (_f8, _dec_f8)

# One row per JSON kind: its payload encoder and decoder, then the array
# codec (encoder, decoder) of each version it reads, from version 1 on.
# `save` writes the last version.
_JSON_KINDS = {
    "gmm": (_gmm_payload, _gmm_from_payload, (_DECIMAL,)),
    "ubm": (lambda ubm, array: _gmm_payload(ubm.gmm, array),
            lambda payload, array: Ubm(gmm=_gmm_from_payload(payload, array)),
            (_DECIMAL, _BINARY)),
    "speaker_model": (_speaker_payload, _speaker_from_payload, (_DECIMAL, _BINARY)),
    "tv_model": (_tv_payload, _tv_from_payload, (_DECIMAL, _BINARY)),
    "ivector": (lambda iv, array: {"w": array(iv.w)},
                lambda payload, array: IVector(w=array(payload["w"], 1)),
                (_DECIMAL, _BINARY)),
    "registry": (_registry_payload, _registry_from_payload, (_DECIMAL, _DECIMAL, _BINARY)),
    "report": (_report_payload, lambda payload, array: _report_from_payload(payload),
               (_DECIMAL,)),  # no arrays; the encoder writes its numbers as decimals
}

KINDS = ("features", *_JSON_KINDS)


def save(obj, kind: str, path):
    """Persist an artifact; deterministic bytes for identical artifacts."""
    if kind not in KINDS:
        raise WrongKind(f"unknown artifact kind {kind!r}")
    if kind == "features":
        write_features(obj, path)
        return
    encode, _, codecs = _JSON_KINDS[kind]
    document = {
        "kind": kind,
        "format_version": len(codecs),
        "payload": encode(obj, codecs[-1][0]),
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
    _atomic_write(path, text.encode("utf-8"))


def _read_artifact(path):
    """The kind a file holds, and its body: the bytes of a VOXF1 feature
    file, or else the parsed JSON envelope."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if raw.startswith(_MAGIC):
        return "features", raw
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptArtifact(f"{path} is not a JSON artifact: {exc}") from exc
    if not isinstance(document, dict) or "kind" not in document:
        raise CorruptArtifact(f"{path} lacks an artifact envelope")
    return document["kind"], document


def _decode(path, kind: str, body):
    if kind == "features":
        decoder, payload = _features_from_bytes, body
    else:
        _, decode, codecs = _JSON_KINDS[kind]
        version = body.get("format_version")
        # JSON true and 1.0 compare equal to 1, but are not a version
        if type(version) is not int or not 1 <= version <= len(codecs):
            raise UnsupportedVersion(f"format_version {version!r} unsupported")
        decoder = functools.partial(decode, array=codecs[version - 1][1])
        payload = body.get("payload", {})
    try:
        return decoder(payload)
    except Exception as exc:
        raise CorruptArtifact(f"{path}: invalid {kind} artifact: {exc}") from exc


def load(path, expected_kind: str):
    """Load, version-check and invariant-check an artifact."""
    if expected_kind not in KINDS:
        raise WrongKind(f"unknown artifact kind {expected_kind!r}")
    kind, body = _read_artifact(path)
    if kind != expected_kind:
        raise WrongKind(f"{path} holds {kind!r}, expected {expected_kind!r}")
    return _decode(path, kind, body)


def load_any(path) -> tuple[str, int | None, object]:
    """Load an artifact of whatever kind the file holds; returns (kind,
    format_version, artifact), the version None for a VOXF1 feature file."""
    kind, body = _read_artifact(path)
    if kind not in KINDS:
        raise WrongKind(f"{path} holds unknown kind {kind!r}")
    version = None if kind == "features" else body.get("format_version")
    return kind, version, _decode(path, kind, body)


@contextlib.contextmanager
def locked(path):
    """Hold an exclusive lock on `path` + ".lock" for a read-modify-write of
    `path`: writers that all take it cannot lose each other's updates. The
    lock file is left in place, since removing it would let a waiting
    writer lock a file that a newer writer no longer sees."""
    lock_path = f"{path}.lock"
    with contextlib.ExitStack() as stack:
        try:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o666)
            stack.callback(os.close, fd)  # closing releases the lock
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError as exc:
            raise IoFailure(f"cannot lock {lock_path}: {exc}") from exc
        yield
