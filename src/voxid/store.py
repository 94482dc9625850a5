"""Versioned on-disk artifacts.

Models, registries and reports are JSON documents with a top-level
{kind, format_version, payload} envelope. Arrays are stored one of three
ways, all bit-exact on the round trip:

- decimal: nested lists of full-precision decimal strings (the repr of
  each float). `gmm` and `report` (format_version 1) store every real
  number this way, as do version 1 of `ubm`, `speaker_model`, `tv_model`
  and `ivector` and versions 1 and 2 of `registry`.
- raw sections: the file is the compact envelope on its first line,
  padded with spaces to a multiple of 8 bytes, then the body: each
  array's C-order little-endian float64 bytes, in payload order. The
  envelope holds each array as a record {"shape": [...], "at": byte
  offset into the body}, a multiple of 8; the body ends where its last
  section ends. `ubm`, `speaker_model`, `tv_model` and `ivector`
  (format_version 3) and `registry` (format_version 4) are written this
  way; integers and strings stay plain JSON.
- base64, read only: one record {"shape": [...], "f8": base64 of the
  float64 bytes}, as `ubm`, `speaker_model`, `tv_model` and `ivector`
  version 2 and `registry` version 3 stored every array.

`_JSON_KINDS` has one row per kind: its payload codecs and the array
decoder of each version it reads. A payload is its dataclass's fields by
name: `_enc` writes every kind but the registry, a mixture field in its
parent's place, and `_model` reads each model kind back, converting each
field by its annotation. The registry shares one block among its entries,
and the report's numbers are decimal strings parsed by type, so each has
a decoder of its own. `save` writes the newest version, and files of
older versions still load bit for bit. A load reads the file once; a
binary array decodes as a read-only view of the bytes read (a raw
section) or decoded (base64), which the model constructors copy once.
`store` checks only the file layout: each record, its offset and the
body's end. The model types check every array's rank, shape and
finiteness, and a load reports their `DimensionMismatch`, like any other
decode error, as `CorruptArtifact`.

A registry (versions 2 to 4) holds the first entry's weights and
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
import dataclasses
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

_GMM_FIELDS = ("weights", "means", "variances")
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

def _enc(value, array=None):
    """Floats, numpy's too, become the repr of the Python float they equal (bit-exact
    round-trip), other numpy scalars the Python numbers they equal. Arrays go through
    `array`, or become lists; lists and tuples are encoded value by value, and a dataclass
    as its fields by name, a mixture field's in its parent's place."""
    if isinstance(value, float):  # numpy's float64 is a float: take float's repr, not numpy's
        return float.__repr__(value)
    if isinstance(value, (str, int, type(None))):  # bools are ints
        return value
    if isinstance(value, np.ndarray) and array is not None:
        return array(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return _enc(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_enc(v, array) for v in value]
    payload = {}
    for f in dataclasses.fields(value):
        field = getattr(value, f.name)
        if isinstance(field, DiagonalGmm):
            payload |= _enc(field, array)
        else:
            payload[f.name] = _enc(field, array)
    return payload


def _dec(data) -> np.ndarray:
    """A whole (nested) list of decimal strings as one float64 array."""
    return np.array(data, dtype=np.float64)


def _shape(record, key: str) -> list:
    """The shape of a {shape, key} record: a list of non-negative ints."""
    if not isinstance(record, dict):
        raise CorruptArtifact(f"expected a {{shape, {key}}} record, found {type(record).__name__}")
    missing = {"shape", key} - record.keys()
    if missing:
        raise CorruptArtifact(f"record lacks {sorted(missing)}")
    shape = record["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise CorruptArtifact(f"expected a shape of non-negative ints, found {shape!r}")
    return shape


def _dec_f8(record) -> np.ndarray:
    """A {shape, f8} record as one (read-only) float64 array, bit for bit."""
    shape = _shape(record, "f8")
    data = base64.b64decode(record["f8"], validate=True)
    if len(data) != 8 * math.prod(shape):
        raise CorruptArtifact(f"shape {shape} needs {8 * math.prod(shape)} bytes, found {len(data)}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


class _Sections:
    """The raw sections of one file's body. `encode` appends an array's float64 bytes and
    returns its {shape, at} record; `decode` checks a record and returns a read-only view
    of its section. `end` is where the sections written or read so far end."""

    def __init__(self, body=b""):
        self.body, self.end, self.chunks = body, 0, []

    def encode(self, array) -> dict:
        data = np.ascontiguousarray(array, dtype="<f8")
        self.chunks.append(data)
        record = {"shape": list(data.shape), "at": self.end}
        self.end += data.nbytes
        return record

    def file(self, header: bytes) -> bytes:
        """The header on one line, padded with spaces so that the body starts at a multiple
        of 8 bytes, then the body."""
        return b"".join([header, b" " * (-(len(header) + 1) % 8), b"\n", *self.chunks])

    def decode(self, record) -> np.ndarray:
        shape, at = _shape(record, "at"), record["at"]
        if type(at) is not int or at < 0 or at % 8:
            raise CorruptArtifact(f"section offset {at!r} is not a non-negative multiple of 8")
        count = math.prod(shape)
        if at + 8 * count > len(self.body):
            raise CorruptArtifact(f"section of {8 * count} bytes at {at} passes the body's end "
                                  f"at {len(self.body)}")
        self.end = max(self.end, at + 8 * count)
        return np.frombuffer(self.body, dtype="<f8", count=count, offset=at).reshape(shape)


# --- feature matrices (binary) ----------------------------------------------

def write_features(feats: FeatureMatrix, path):
    if feats.dim_k == 0:  # the loader rejects such a file as corrupt
        raise DimensionMismatch("feature dimension is 0")
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

# Each codec takes `array`, the one function that encodes (`_enc` or `_Sections.encode`)
# or decodes (`_dec`, `_dec_f8` or `_Sections.decode`) every array of its kind's version.

def _model(cls, payload, array):
    """`cls` from its fields by name, each converted by its annotation string: an array by
    `array`, an int or a str as itself; a mixture field is read from the same payload."""
    convert = {"np.ndarray": array, "int": int, "str": str}
    return cls(**{f.name: _model(DiagonalGmm, payload, array) if f.type == "DiagonalGmm"
                  else convert[f.type](payload[f.name]) for f in dataclasses.fields(cls)})


def _gmm_from_payload(payload, array, shared) -> DiagonalGmm:
    """A registry entry's mixture. A payload holding only means takes the weights and
    variances of `shared`, a checked mixture; any other field it lacks is taken from
    `shared` too, if there is one."""
    fields = {name: array(payload[name]) for name in _GMM_FIELDS if name in payload}
    if shared is not None:
        if fields.keys() == {"means"}:
            return shared.with_means(fields["means"])
        fields = {"weights": shared.weights, "variances": shared.variances} | fields
    if len(fields) != len(_GMM_FIELDS):
        raise CorruptArtifact(f"model lacks {sorted(set(_GMM_FIELDS) - fields.keys())}")
    return DiagonalGmm(**fields)


def _registry_payload(registry: SpeakerRegistry, array) -> dict:
    entries, shared = [], {}
    if registry.entries:
        first = registry.entries[0].model.gmm
        shared = {"weights": first.weights, "variances": first.variances}
    block = {name: array(a) for name, a in shared.items()}  # first, as loading reads it
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
    return {"entries": entries, "shared": block}


def _registry_from_payload(payload, array) -> SpeakerRegistry:
    block = {name: array(data) for name, data in payload.get("shared", {}).items()}
    # checked once, as one mixture about zero means, which no entry takes
    shared = DiagonalGmm(means=np.zeros_like(block["variances"]), **block) if block else None
    registry = SpeakerRegistry()
    for entry in payload["entries"]:
        ivec = None
        if "ivector" in entry:
            ivec = IVector(w=array(entry["ivector"]))
        registry.add(
            RegistryEntry(
                speaker_id=str(entry["speaker_id"]),
                cluster_id=str(entry["cluster_id"]),
                model=SpeakerModel(speaker_id=str(entry["model"]["speaker_id"]),
                                   gmm=_gmm_from_payload(entry["model"], array, shared)),
                ivector=ivec,
                language_tag=str(entry.get("language_tag", "")),
                is_impostor=bool(entry.get("is_impostor", False)),
            )
        )
    return registry


def _report_from_payload(payload, array) -> EvalReport:
    """A report; it holds no arrays, so `array` goes unused. Its numbers are decimal
    strings, each parsed as its field's type."""
    if any(type(t.get("true_speaker_id")) not in (str, type(None)) for t in payload["per_trial"]):
        raise CorruptArtifact("a true_speaker_id is neither a string nor null")
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


# One row per JSON kind: its payload encoder and decoder, then the array
# codec of each version it reads, from version 1 on: a decoder of arrays held
# in the JSON, or `_Sections`. `save` writes the last version: raw sections,
# or decimal strings where that version's codec is `_dec`.
_MODEL_CODECS = (_dec, _dec_f8, _Sections)
_JSON_KINDS = {
    "gmm": (_enc, functools.partial(_model, DiagonalGmm), (_dec,)),
    "ubm": (_enc, functools.partial(_model, Ubm), _MODEL_CODECS),
    "speaker_model": (_enc, functools.partial(_model, SpeakerModel), _MODEL_CODECS),
    "tv_model": (_enc, functools.partial(_model, TotalVariabilityModel), _MODEL_CODECS),
    "ivector": (_enc, functools.partial(_model, IVector), _MODEL_CODECS),
    "registry": (_registry_payload, _registry_from_payload, (_dec, _dec, _dec_f8, _Sections)),
    "report": (_enc, _report_from_payload, (_dec,)),  # no arrays; numbers as decimals
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
    sections = _Sections() if codecs[-1] is _Sections else None
    document = {
        "kind": kind,
        "format_version": len(codecs),
        "payload": encode(obj, sections.encode if sections else _enc),
    }
    header = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    _atomic_write(path, sections.file(header) if sections else header + b"\n")


def _read_artifact(path):
    """The kind a file holds, its JSON envelope (None for a VOXF1 feature file) and
    what follows: the bytes past the envelope's line, all of a feature file's bytes,
    or None for a multi-line JSON document."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if raw.startswith(_MAGIC):
        return "features", None, raw
    end = raw.find(b"\n") + 1 or len(raw)
    try:  # one line: a raw-section header, or a whole compact document
        document, body = json.loads(raw[:end].decode("utf-8")), memoryview(raw)[end:]
    except (UnicodeDecodeError, json.JSONDecodeError):
        try:  # an older document spread over lines
            document, body = json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CorruptArtifact(f"{path} is not a JSON artifact: {exc}") from exc
    if not isinstance(document, dict) or "kind" not in document:
        raise CorruptArtifact(f"{path} lacks an artifact envelope")
    return document["kind"], document, body


def _decode(path, kind: str, document, body):
    """The artifact a file holds; past the version check, every failure is
    `CorruptArtifact`. Only raw sections have a body past the envelope's line."""
    if kind != "features":
        _, decode, codecs = _JSON_KINDS[kind]
        version = document.get("format_version")
        # JSON true and 1.0 compare equal to 1, but are not a version
        if type(version) is not int or not 1 <= version <= len(codecs):
            raise UnsupportedVersion(f"format_version {version!r} unsupported")
        codec, payload = codecs[version - 1], document.get("payload", {})
    try:
        if kind == "features":
            return _features_from_bytes(body)
        if codec is not _Sections:
            if body is not None and bytes(body).strip(b" \t\n\r"):  # JSON's whitespace
                raise CorruptArtifact("bytes follow the JSON document")
            return decode(payload, codec)
        if body is None:
            raise CorruptArtifact("the envelope of raw sections is not on one line")
        sections = _Sections(body)
        artifact = decode(payload, sections.decode)
        if sections.end != len(body):
            raise CorruptArtifact(f"the body holds {len(body)} bytes, "
                                  f"its sections end at {sections.end}")
        return artifact
    except Exception as exc:
        raise CorruptArtifact(f"{path}: invalid {kind} artifact: {exc}") from exc


def load(path, expected_kind: str):
    """Load, version-check and invariant-check an artifact."""
    if expected_kind not in KINDS:
        raise WrongKind(f"unknown artifact kind {expected_kind!r}")
    kind, document, body = _read_artifact(path)
    if kind != expected_kind:
        raise WrongKind(f"{path} holds {kind!r}, expected {expected_kind!r}")
    return _decode(path, kind, document, body)


def load_any(path) -> tuple[str, int | None, object]:
    """Load an artifact of whatever kind the file holds; returns (kind,
    format_version, artifact), the version None for a VOXF1 feature file."""
    kind, document, body = _read_artifact(path)
    if kind not in KINDS:
        raise WrongKind(f"{path} holds unknown kind {kind!r}")
    version = None if document is None else document.get("format_version")
    return kind, version, _decode(path, kind, document, body)


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
