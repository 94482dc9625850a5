"""Synthetic two-stage evaluation protocol at desk scale.

Stage 1: enrolled speaker models in clusters with planted impostors,
identification by cohort-normalized log-likelihood ratio at one or more
thresholds. Stage 2: the same synthetic speakers pushed through the
total-variability front-end and scored by cosine against a small target
list containing both true speakers and impostors. Experiment files and
the CLI's --config share the flat "key = value" parser and key rule here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvalidExperimentConfig, VoxidUsageError
from .evaluation import (
    EvalReport,
    RegistryEntry,
    SpeakerRegistry,
    Trial,
    TrialResult,
    identify,
    summarize,
)
from .features import FeatureMatrix
from .gmm import DiagonalGmm, GmmTrainingConfig, em_fit
from .scoring import DecisionPolicy, decide
from .speaker_models import Ubm, accumulate_stats, map_adapt
from .total_variability import extract_ivectors, init_tv, train_tv


# Smallest allowed value of the seed and each count, size, rank and scale; all finite.
_MINIMUM = dict.fromkeys(
    ("seed", "num_impostors", "tv_iterations", "cosine_target_true", "cosine_target_impostors",
     "speaker_spread", "relevance"), 0
) | dict.fromkeys(("num_true_speakers", "num_clusters", "feature_dim", "ubm_components",
                   "ubm_frames", "enroll_frames", "test_frames", "tv_rank",
                   "tv_chunk_frames"), 1)


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "llr"             # "llr" | "cosine"
    seed: int = 0
    num_true_speakers: int = 12
    num_impostors: int = 3
    num_clusters: int = 3
    feature_dim: int = 8
    ubm_components: int = 16
    ubm_frames: int = 8000
    enroll_frames: int = 3000     # ~30 s at a 10 ms shift
    test_frames: int = 1000       # ~10 s
    speaker_spread: float = 1.0   # std of the per-speaker mean offsets
    relevance: float = 16.0
    thresholds: tuple = (1.0,)
    tv_rank: int = 8
    tv_iterations: int = 5
    tv_chunk_frames: int = 300
    cosine_target_true: int = 4
    cosine_target_impostors: int = 3

    def __post_init__(self):
        if self.mode not in ("llr", "cosine"):
            raise InvalidExperimentConfig(f"unknown mode {self.mode!r}")
        for name, low in _MINIMUM.items():
            if not low <= getattr(self, name) < np.inf:
                raise InvalidExperimentConfig(f"{name} must be finite and >= {low}")
        if self.ubm_frames < self.ubm_components:
            raise InvalidExperimentConfig("ubm_frames must be >= ubm_components")
        if self.mode == "llr" and self.num_true_speakers + self.num_impostors < 2:
            raise InvalidExperimentConfig("num_true_speakers + num_impostors must be >= 2: "
                                          "llr mode normalises over a cohort of them")
        if not self.thresholds:
            raise InvalidExperimentConfig("need at least one threshold")
        if len(set(self.thresholds)) != len(self.thresholds):
            raise InvalidExperimentConfig(f"thresholds repeat a value: {self.thresholds}")
        for t in self.thresholds:
            try:
                DecisionPolicy(threshold=t, mode=self.mode)
            except ValueError as exc:
                raise InvalidExperimentConfig(f"thresholds: {exc}") from exc
        if self.mode == "cosine":
            if self.tv_rank >= self.ubm_components * self.feature_dim:
                raise InvalidExperimentConfig("tv_rank must be < ubm_components * feature_dim")
            if self.enroll_frames < self.tv_chunk_frames:
                raise InvalidExperimentConfig("tv_chunk_frames exceeds enroll_frames: "
                                              "no full piece to train the TV model on")
            if not 1 <= self.cosine_target_true <= self.num_true_speakers:  # a trial per target
                raise InvalidExperimentConfig("cosine_target_true must be in [1, num_true_speakers]")
            if self.cosine_target_impostors > self.num_impostors:
                raise InvalidExperimentConfig("not enough impostors for target list")


def parse_settings(text: str, converters: dict, source: str = "<string>",
                   error: type = VoxidUsageError) -> dict:
    """Parse flat `key = value` lines, converting each value by its key.

    Blank lines and `#` comments are skipped. A line without `=`, a key
    missing from `converters`, a key given twice or a failed conversion
    raises `error` naming `source` and the line number.
    """
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep:
            raise error(f"{source}:{lineno}: expected key = value")
        if key not in converters:
            raise error(f"{source}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise error(f"{source}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = converters[key](value.strip())
        except ValueError as exc:
            raise error(f"{source}:{lineno}: {exc}") from exc
    return values


def read_settings(path, converters: dict) -> dict:
    """Read a `key = value` settings file; see `parse_settings`."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise VoxidUsageError(f"cannot read config {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise VoxidUsageError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
    return parse_settings(text, converters, str(path))


def _flag(value: str) -> bool:
    word = value.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {value!r}")
    return word in ("1", "true", "yes", "on")


def _floats(value: str) -> tuple:
    return tuple(float(v) for v in value.split(","))


def settings_keys(*classes, exclude=()) -> dict:
    """A settings key for each field of the config dataclasses but `exclude`, converting by
    the field's annotation string: str, int and float as themselves, `int | None` as int,
    bool by `_flag` and tuple by `_floats`. Any other annotation raises KeyError, so a
    module's table fails at import."""
    converters = {"str": str, "int": int, "int | None": int, "float": float,
                  "bool": _flag, "tuple": _floats}
    return {f.name: converters[f.type]
            for cls in classes for f in fields(cls) if f.name not in exclude}


EXPERIMENT_KEYS = settings_keys(ExperimentConfig)


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse the flat "key = value" experiment description."""
    values = parse_settings(text, EXPERIMENT_KEYS, error=InvalidExperimentConfig)
    return ExperimentConfig(**values)


def _random_gmm(rng: np.random.Generator, components: int, dim: int) -> DiagonalGmm:
    weights = rng.gamma(5.0, size=components)
    weights /= weights.sum()
    means = rng.normal(0.0, 2.0, size=(components, dim))
    variances = rng.uniform(0.5, 1.5, size=(components, dim))
    return DiagonalGmm(weights=weights, means=means, variances=variances)


def sample_from_gmm(gmm: DiagonalGmm, n: int, rng: np.random.Generator) -> FeatureMatrix:
    comps = rng.choice(gmm.num_components, size=n, p=gmm.weights)
    noise = rng.standard_normal((n, gmm.dim_k))
    frames = gmm.means[comps] + noise * np.sqrt(gmm.variances)[comps]  # one root per component
    return FeatureMatrix(frames)


@dataclass
class SyntheticWorld:
    """Everything the two stages share: UBM, registry and held-out tests, each held once in
    the form its stage reads."""

    config: ExperimentConfig
    ubm: object
    registry: SpeakerRegistry
    test_sets: dict  # true speaker_id -> test FeatureMatrix (llr) or its BaumWelchStats (cosine)
    enroll_pieces: dict  # cosine only: speaker_id -> [BaumWelchStats] of its enrollment's pieces
    tv_model: object = None


def build_world(config: ExperimentConfig) -> SyntheticWorld:
    rng = np.random.default_rng(config.seed)
    base = _random_gmm(rng, config.ubm_components, config.feature_dim)

    gmm_config = GmmTrainingConfig(num_components=config.ubm_components, rng_seed=config.seed)
    ubm = Ubm(gmm=em_fit(sample_from_gmm(base, config.ubm_frames, rng), gmm_config))

    registry = SpeakerRegistry()
    test_sets = {}
    enroll_pieces = {}
    # Cosine mode's TV training pieces also sum to the MAP statistics: one UBM pass a frame.
    cosine = config.mode == "cosine"
    piece = config.tv_chunk_frames if cosine else config.enroll_frames
    total = config.num_true_speakers + config.num_impostors
    for idx in range(total):
        is_impostor = idx >= config.num_true_speakers
        sid = f"imp{idx - config.num_true_speakers:02d}" if is_impostor else f"spk{idx:02d}"
        offset = rng.normal(0.0, config.speaker_spread, size=base.means.shape)
        truth = base.with_means(base.means + offset)
        enroll = sample_from_gmm(truth, config.enroll_frames, rng)
        pieces = [accumulate_stats(FeatureMatrix(enroll.frames[start:start + piece]), ubm)
                  for start in range(0, config.enroll_frames, piece)]
        model = map_adapt(sum(pieces[1:], pieces[0]), ubm, relevance=config.relevance,
                          speaker_id=sid)
        registry.add(RegistryEntry(speaker_id=sid, cluster_id=f"cluster{idx % config.num_clusters}",
                                   model=model, is_impostor=is_impostor))
        if cosine:
            enroll_pieces[sid] = pieces
        if not is_impostor:
            test = sample_from_gmm(truth, config.test_frames, rng)
            test_sets[sid] = accumulate_stats(test, ubm) if cosine else test
    return SyntheticWorld(config=config, ubm=ubm, registry=registry, test_sets=test_sets,
                          enroll_pieces=enroll_pieces)


def attach_ivectors(world: SyntheticWorld) -> SyntheticWorld:
    """Train the variability model on full-length enrollment pieces, set registry i-vectors."""
    config = world.config
    full = config.enroll_frames // config.tv_chunk_frames  # the short last piece trains no T
    stats_set = [stats for sid in sorted(world.enroll_pieces)
                 for stats in world.enroll_pieces[sid][:full]]
    tv = init_tv(world.ubm, config.tv_rank, rng_seed=config.seed)
    tv = train_tv(stats_set, tv, iterations=config.tv_iterations)
    entries = world.registry.entries
    pieces = (world.enroll_pieces[e.speaker_id] for e in entries)
    ivectors = extract_ivectors([sum(p[1:], p[0]) for p in pieces], tv)
    for entry, ivector in zip(entries, ivectors):
        entry.ivector = ivector
    world.tv_model = tv
    return world


def _redecide(results, policy: DecisionPolicy):
    out = []
    for res in results:
        ranked = [
            (sid, raw, norm, decide(norm, policy)) for sid, raw, norm, _ in res.ranked
        ]
        out.append(TrialResult(res.trial_id, res.true_speaker_id, ranked))
    return out


def run_experiment(config: ExperimentConfig) -> list[EvalReport]:
    """Build the synthetic world, run all trials, report once per threshold."""
    world = build_world(config)
    policy = DecisionPolicy(threshold=config.thresholds[0], mode=config.mode)
    if config.mode == "llr":
        targets = world.registry
        trials = [
            Trial(trial_id=f"trial-{sid}", test_features=world.test_sets[sid],
                  true_speaker_id=sid)
            for sid in sorted(world.test_sets)
        ]
    else:
        world = attach_ivectors(world)
        true_ids = sorted(world.test_sets)[: config.cosine_target_true]
        imp_ids = sorted(
            e.speaker_id for e in world.registry.entries if e.is_impostor
        )[: config.cosine_target_impostors]
        targets = SpeakerRegistry()
        for sid in true_ids + imp_ids:
            targets.add(world.registry.get(sid))
        tests = extract_ivectors([world.test_sets[sid] for sid in true_ids], world.tv_model)
        trials = [Trial(trial_id=f"trial-{sid}", true_speaker_id=sid, test_ivector=ivector)
                  for sid, ivector in zip(true_ids, tests)]

    results = [identify(trial, targets, policy, ubm=world.ubm) for trial in trials]
    return [summarize(_redecide(results, replace(policy, threshold=t)), t, policy.mode)
            for t in config.thresholds]
