"""Batch command-line interface.

Commands: features, train-ubm, enroll, train-tv, ivector, identify,
evaluate, inspect. Exit codes: 0 success, 1 domain error, 2 input-data
error, 64 usage/config error. All randomness flows from --seed
(default 0), so every command is reproducible by default.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import store
from .audio import read_wav
from .errors import IoFailure, VoxidDataError, VoxidDomainError, VoxidError, VoxidUsageError
from .evaluation import (
    RegistryEntry,
    SpeakerRegistry,
    Trial,
    identify,
    report_to_csv,
    summarize,
)
from .experiment import (EXPERIMENT_KEYS, ExperimentConfig, read_settings, run_experiment,
                         settings_keys)
from .features import MfccConfig, extract_mfcc
from .gmm import GmmTrainingConfig, em_fit_detailed
from .scoring import BACKENDS, DecisionPolicy
from .speaker_models import DEFAULT_RELEVANCE, Ubm, accumulate_stats, map_adapt, pool_features
from .total_variability import extract_ivector, init_tv, train_tv

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_DATA = 2
EXIT_USAGE = 64

# the first family an error belongs to gives its exit code
_EXIT_CODES = {
    VoxidUsageError: EXIT_USAGE,
    VoxidDataError: EXIT_DATA,
    VoxidDomainError: EXIT_DOMAIN,
    ValueError: EXIT_USAGE,
}


def _report(exc, where="") -> int:
    """exc's exit code, once printed: a toolkit error by its type, any other as ValueError."""
    name = type(exc).__name__ if isinstance(exc, VoxidError) else "ValueError"
    print(f"{where}{name}: {exc}", file=sys.stderr)
    return next(code for family, code in _EXIT_CODES.items() if isinstance(exc, family))


# --- flat key = value config files -------------------------------------------

def _relevance(value: str) -> float:
    relevance = float(value)
    if not 0.0 <= relevance < np.inf:  # as map_adapt requires, before any work is done
        raise ValueError(f"relevance must be finite and >= 0, got {value}")
    return relevance


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:  # numpy's generators take none, so refuse it before any work is done
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return seed


# rng_seed comes from --seed; relevance is map_adapt's argument, not a config field
_CONFIG_KEYS = {**settings_keys(MfccConfig, GmmTrainingConfig, exclude=("rng_seed",)),
                "relevance": _relevance}


def _config_from(cls, settings: dict, **fixed):
    """Build the config dataclass `cls` from the settings that name its fields."""
    names = {f.name for f in dataclasses.fields(cls)}
    try:
        return cls(**{k: v for k, v in settings.items() if k in names}, **fixed)
    except ValueError as exc:
        raise VoxidUsageError(str(exc)) from exc


# --- SVG bar chart ------------------------------------------------------------

# XML text escapes; xml.sax.saxutils.escape would import urllib, http and ssl
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def score_bar_svg(labels, scores, threshold: float) -> str:
    """Minimal bar chart: one rect per speaker, threshold as a horizontal line."""
    width, height, margin = 640, 360, 40
    plot_w, plot_h = width - 2 * margin, height - 2 * margin
    lo = min(0.0, min(scores), threshold)
    hi = max(0.0, max(scores), threshold, lo + 1e-9)
    span = hi - lo

    def y_of(value):
        return margin + plot_h * (1.0 - (value - lo) / span)

    zero_y = y_of(0.0)
    bar_w = plot_w / max(len(scores), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for i, (label, score) in enumerate(zip(labels, scores)):
        x = margin + i * bar_w
        score_y = y_of(score)
        top = min(score_y, zero_y)
        parts.append(
            f'<rect x="{x + 0.1 * bar_w:.2f}" y="{top:.2f}" width="{0.8 * bar_w:.2f}" '
            f'height="{max(abs(score_y - zero_y), 0.5):.2f}" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{x + 0.5 * bar_w:.2f}" y="{height - margin + 16}" '
            f'font-size="11" text-anchor="middle">{str(label).translate(_XML_TEXT)}</text>'
        )
        parts.append(
            f'<text x="{x + 0.5 * bar_w:.2f}" y="{top - 4:.2f}" '
            f'font-size="10" text-anchor="middle">{score:.3g}</text>'
        )
    ty = y_of(threshold)
    parts.append(
        f'<line x1="{margin}" y1="{ty:.2f}" x2="{width - margin}" y2="{ty:.2f}" '
        f'stroke="crimson" stroke-dasharray="6,3"/>'
    )
    parts.append(
        f'<text x="{width - margin}" y="{ty - 5:.2f}" font-size="11" '
        f'text-anchor="end" fill="crimson">threshold {threshold:g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(path, text: str):
    store._atomic_write(path, text.encode("utf-8"))


# --- commands -----------------------------------------------------------------

def cmd_features(args, settings):
    if not args.inputs:
        raise VoxidUsageError("no input audio files given")
    config = _config_from(MfccConfig, settings)
    outputs = [_derive_output(path, args.out_dir, ".feat") for path in args.inputs]
    first = {}  # checked before any write, so a clash loses no features
    for i, out in enumerate(outputs):
        j = first.setdefault(os.path.abspath(out), i)
        if j != i:
            raise VoxidUsageError(f"{args.inputs[j]} and {args.inputs[i]} would both write {out}")
    codes = {EXIT_OK}
    for path, out in zip(args.inputs, outputs):
        try:
            feats = extract_mfcc(read_wav(path), config)
            store.save(feats, "features", out)
        except tuple(_EXIT_CODES) as exc:
            # a setting that cannot frame this file's rate is a usage error, and a failed
            # write a data error, each reported per file, so every input is tried
            codes.add(_report(exc, f"{path}: "))
            continue
        if args.verbose:
            print(f"{path} -> {out} ({feats.count_L}x{feats.dim_k})")
    return max(codes)  # usage (64) over data (2) over domain (1) over none


def _derive_output(path, out_dir, suffix):
    stem = os.path.splitext(os.path.basename(path))[0]
    directory = out_dir or os.path.dirname(path) or "."
    return os.path.join(directory, stem + suffix)


def cmd_train_ubm(args, settings):
    if not args.inputs:
        raise VoxidUsageError("no feature files given")
    config = _config_from(GmmTrainingConfig, settings, rng_seed=args.seed)
    pooled = pool_features([store.load(p, "features") for p in args.inputs])
    gmm, history = em_fit_detailed(pooled, config)
    for i, ll in enumerate(history):
        print(f"iteration {i}: log-likelihood {ll:.6f}")
    store.save(Ubm(gmm=gmm), "ubm", args.output)
    return EXIT_OK


def cmd_enroll(args, settings):
    ubm = store.load(args.ubm, "ubm")
    feats = pool_features([store.load(p, "features") for p in args.features])
    stats = accumulate_stats(feats, ubm)
    relevance = settings.get("relevance", DEFAULT_RELEVANCE)
    model = map_adapt(stats, ubm, relevance=relevance, speaker_id=args.speaker_id)
    ivector = None
    if args.tv:
        tv = store.load(args.tv, "tv_model")
        ivector = extract_ivector(stats, tv)
    entry = RegistryEntry(speaker_id=args.speaker_id, cluster_id=args.cluster, model=model,
                          ivector=ivector, language_tag=args.language, is_impostor=args.impostor)
    with store.locked(args.registry):  # concurrent enrolls must not lose entries
        registry = (store.load(args.registry, "registry") if os.path.exists(args.registry)
                    else SpeakerRegistry())
        registry.add(entry)
        store.save(registry, "registry", args.registry)
    if args.verbose:
        print(f"enrolled {args.speaker_id} in {args.cluster}")
    return EXIT_OK


def cmd_train_tv(args, settings):
    rank, iterations = args.rank, args.iterations
    if rank < 1 or iterations < 0:
        raise VoxidUsageError(f"need rank >= 1 and iterations >= 0, got {rank} and {iterations}")
    ubm = store.load(args.ubm, "ubm")
    tv = init_tv(ubm, rank, rng_seed=args.seed)
    stats_set = [accumulate_stats(store.load(p, "features"), ubm) for p in args.inputs]
    tv = train_tv(stats_set, tv, iterations=iterations)
    store.save(tv, "tv_model", args.output)
    return EXIT_OK


def cmd_ivector(args, settings):
    ubm = store.load(args.ubm, "ubm")
    tv = store.load(args.tv, "tv_model")
    feats = store.load(args.features, "features")
    stats = accumulate_stats(feats, ubm)
    store.save(extract_ivector(stats, tv), "ivector", args.output)
    return EXIT_OK


def cmd_identify(args, settings):
    registry = store.load(args.registry, "registry")
    policy = DecisionPolicy(threshold=args.threshold, mode=args.mode)
    kind, _, _ = BACKENDS[policy.mode]
    ubm = None
    if kind == "features":  # features are scored against the UBM
        if not args.ubm:
            raise VoxidUsageError(f"--ubm is required in {policy.mode} mode")
        ubm = store.load(args.ubm, "ubm")
    trial = Trial(trial_id="cli", **{f"test_{kind}": store.load(args.test, kind)})
    result = identify(trial, registry, policy, ubm=ubm)

    print(f"{'speaker':<12} {'raw':>14} {'score':>10} decision")
    for sid, raw, norm, accepted in result.ranked:
        verdict = "accept" if accepted else "reject"
        print(f"{sid:<12} {raw:>14.4f} {norm:>10.4f} {verdict}")

    if args.json or args.csv:
        report = summarize([result], args.threshold, policy.mode)
        if args.json:
            store.save(report, "report", args.json)
        if args.csv:
            _write_text(args.csv, report_to_csv(report))
    if args.svg:
        labels = [sid for sid, _, _, _ in result.ranked]
        scores = [norm for _, _, norm, _ in result.ranked]
        _write_text(args.svg, score_bar_svg(labels, scores, args.threshold))
    return EXIT_OK


def cmd_evaluate(args, settings):
    config = ExperimentConfig(**read_settings(args.config_file, EXPERIMENT_KEYS))
    directory = os.path.dirname(os.path.abspath(f"{args.output_prefix}-t"))
    if not os.path.isdir(directory):  # found before the run, not after it
        raise IoFailure(f"cannot write {args.output_prefix}-t* reports: no directory {directory}")
    reports = run_experiment(config)
    for report in reports:
        digits = np.format_float_positional(report.threshold, trim="-")  # shortest round trip
        path = f"{args.output_prefix}-t{digits.replace('.', '_')}"
        store.save(report, "report", f"{path}.json")
        _write_text(f"{path}.csv", report_to_csv(report))
        print(
            f"threshold {digits}: top1={report.top1_accuracy:.3f} "
            f"FA={report.false_accepts} FR={report.false_rejects} eer={report.eer:.3f}"
        )
    return EXIT_OK


def cmd_inspect(args, settings):
    kind, version, artifact = store.load_any(args.path)
    print(f"kind: {kind}")
    if version is not None:
        print(f"format_version: {version}")
    if kind == "features":
        print(f"frames: {artifact.count_L} x {artifact.dim_k}")
    elif kind in ("gmm", "ubm", "speaker_model"):
        gmm = artifact.gmm if hasattr(artifact, "gmm") else artifact
        print(f"components: {gmm.num_components}, dim: {gmm.dim_k}")
    elif kind == "tv_model":
        print(f"rank: {artifact.rank_R}, supervector: {artifact.m.size}")
    elif kind == "ivector":
        print(f"rank: {artifact.w.size}")
    elif kind == "registry":
        for e in artifact.entries:
            flag = " (impostor)" if e.is_impostor else ""
            print(f"  {e.speaker_id} cluster={e.cluster_id}{flag}")
    elif kind == "report":
        print(f"trials: {len(artifact.per_trial)}, top1: {artifact.top1_accuracy:.3f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser every `main` call in a process shares: parse_args
    leaves it unchanged, and callers must not change it either."""
    parser = argparse.ArgumentParser(prog="voxid", description=__doc__)
    parser.add_argument("--config", help="flat key = value settings file")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("features", help="extract MFCC features from WAV files")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--out-dir")

    p = sub.add_parser("train-ubm", help="train the background model")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--output", required=True)

    p = sub.add_parser("enroll", help="MAP-adapt and register a speaker")
    p.add_argument("--speaker-id", required=True)
    p.add_argument("--cluster", default="default")
    p.add_argument("--language", default="")
    p.add_argument("--impostor", action="store_true")
    p.add_argument("--registry", required=True)
    p.add_argument("--ubm", required=True)
    p.add_argument("--tv")
    p.add_argument("features", nargs="+")

    p = sub.add_parser("train-tv", help="train the total-variability matrix")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--ubm", required=True)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--output", required=True)

    p = sub.add_parser("ivector", help="extract an i-vector for one utterance")
    p.add_argument("features")
    p.add_argument("--ubm", required=True)
    p.add_argument("--tv", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("identify", help="score a test input against the registry")
    p.add_argument("test")
    p.add_argument("--registry", required=True)
    p.add_argument("--ubm")
    p.add_argument("--mode", choices=["llr", *BACKENDS], default="llr")
    p.add_argument("--threshold", type=float, default=1.0)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.add_argument("--svg")

    p = sub.add_parser("evaluate", help="run a synthetic evaluation experiment")
    p.add_argument("config_file")
    p.add_argument("--output-prefix", default="report")

    p = sub.add_parser("inspect", help="describe a stored artifact")
    p.add_argument("path")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        settings = read_settings(args.config, _CONFIG_KEYS) if args.config else {}
        # looked up per call, not bound into the cached parser
        command = globals()[f"cmd_{args.command.replace('-', '_')}"]
        return command(args, settings)
    except tuple(_EXIT_CODES) as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())
