"""The three benchmark workloads.

Each workload has `setup(seed, seconds, workdir)`, which generates every
input from the seed; `run(inputs, rec)`, the timed phases, which drive
voxid through its public functions (or `voxid.cli.main`) in a closed
loop: one caller, each call issued after the previous one returns; and
`check(inputs, state, rec)`, the correctness checks, which run untimed
and untraced and mark the operation whose output failed them. Voxid
functions are always looked up on their module at call time, so the
traced run's wrappers see every call.

The amount of work depends only on the seed and `--seconds`, never on the
clock, so counts, EER and top-1 repeat exactly for one seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil

import numpy as np
from scipy.signal import lfilter

from voxid import (
    audio, cli, evaluation, experiment, features, gmm, speaker_models, store,
    total_variability,
)
from voxid.errors import VoxidError
from voxid.evaluation import RegistryEntry, SpeakerRegistry, Trial
from voxid.scoring import DecisionPolicy

FEATURE_DIM = 20          # library workloads
BASE_MEAN_SPREAD = 0.5    # overlapping components: k-means always runs its 25 Lloyd steps
# CPU speed on a shared machine drifts over seconds, so every timed phase
# recurs in rounds spread across the whole run, and each median is taken over
# samples from all of them rather than from one stretch of the run.
LLR_THRESHOLD = 1.0
COSINE_THRESHOLD = 0.5
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


def _digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _base_gmm(rng, components, dim):
    weights = rng.gamma(5.0, size=components)
    weights /= weights.sum()
    return gmm.DiagonalGmm(
        weights=weights,
        means=rng.normal(0.0, BASE_MEAN_SPREAD, size=(components, dim)),
        variances=rng.uniform(0.5, 1.5, size=(components, dim)),
    )


def _speaker_truths(rng, base, count, spread):
    """Per-speaker generating GMMs: the base means plus a seeded offset."""
    return {
        f"spk{i:03d}": gmm.DiagonalGmm(
            weights=base.weights,
            means=base.means + rng.normal(0.0, spread, size=base.means.shape),
            variances=base.variances,
        )
        for i in range(count)
    }


def _check_ranking(rec, key, result, policy):
    """Every decision score is finite, sorted, and decided against the threshold."""
    ranked = result.ranked
    scores = [norm for _, _, norm, _ in ranked]
    order = sorted(ranked, key=lambda item: (-item[2], item[0]))
    if not all(math.isfinite(s) for s in scores):
        rec.fail(key, "non-finite score")
    elif ranked != order:
        rec.fail(key, "ranking not sorted")
    elif any(accepted != (norm > policy.threshold) for _, _, norm, accepted in ranked):
        rec.fail(key, "decision disagrees with threshold")


def _scaled_count(seconds, per_second, minimum=3):
    """How many rounds or trials a run of `seconds` makes."""
    return max(minimum, int(round(per_second * seconds)))


def _round_slice(items, index, rounds):
    """The index-th of `rounds` contiguous slices of items."""
    return items[index * len(items) // rounds:(index + 1) * len(items) // rounds]


def _results_digest(results):
    """One digest of every trial's ranking, to compare rounds that repeat work."""
    return hashlib.sha256(repr([(r.trial_id, r.ranked) for r in results]).encode()).hexdigest()


class GmmUbmLlr:
    """UBM training (k-means++ then EM), MAP enrollment, normalised-LLR trials.

    Each of `worlds` rounds runs its own world: a base GMM, its pooled UBM
    data, speakers and trials, all drawn from the seed. How well the UBM fits
    decides much of top-1, so one world per round averages that over the
    worlds; the amount of work is the same in every world.
    """

    name = "gmm_ubm_llr"
    aliases = {"ubm_train_s": "train_s", "report_s": "evaluate_s"}
    components = 64
    ubm_frames = 15000
    ubm_iterations = 8
    speakers = 16
    speaker_spread = 0.19  # keeps top-1 near 0.9 and EER near 0.03, off both limits
    enroll_frames = 2000
    test_frames = 300
    worlds = 3
    trials_per_second = 4.0
    report_window = 24     # trials in each running report

    def _world(self, rng, index, trial_count):
        base = _base_gmm(rng, self.components, FEATURE_DIM)
        pooled = experiment.sample_from_gmm(base, self.ubm_frames, rng)
        truths = _speaker_truths(rng, base, self.speakers, self.speaker_spread)
        ids = sorted(truths)
        enroll = {sid: experiment.sample_from_gmm(truths[sid], self.enroll_frames, rng)
                  for sid in ids}
        trials = []
        for j in range(trial_count):
            sid = ids[j % len(ids)]
            feats = experiment.sample_from_gmm(truths[sid], self.test_frames, rng)
            trials.append(Trial(trial_id=f"w{index}trial{j:04d}", test_features=feats,
                                true_speaker_id=sid))
        return {"pooled": pooled, "enroll": enroll, "trials": trials}

    def setup(self, seed, seconds, workdir):
        rng = np.random.default_rng(seed)
        per_world = _scaled_count(seconds, self.trials_per_second, minimum=100) // self.worlds
        worlds = [self._world(rng, index, per_world) for index in range(self.worlds)]
        digest = _digest(*(array for w in worlds for array in (
            w["pooled"].frames, *(f.frames for f in w["enroll"].values()),
            *(t.test_features.frames for t in w["trials"]))))
        return {"seed": seed, "worlds": worlds, "digest": digest}

    def run(self, inputs, rec):
        config = gmm.GmmTrainingConfig(
            num_components=self.components, max_iterations=self.ubm_iterations,
            convergence_tol=1e-12, rng_seed=inputs["seed"],
        )
        policy = DecisionPolicy(threshold=LLR_THRESHOLD, mode="llr-normalized")
        rounds = []
        for world in inputs["worlds"]:
            with rec.phase("train"):
                ubm = rec.call("train_s", speaker_models.train_ubm, [world["pooled"]], config)
            with rec.phase("ingest"):
                stats = {sid: rec.call("ingest_ms", speaker_models.accumulate_stats, feats, ubm)
                         for sid, feats in world["enroll"].items()}
            registry = SpeakerRegistry()
            with rec.phase("enroll"):
                for number, sid in enumerate(stats):
                    model = rec.call("enroll_ms", speaker_models.map_adapt, stats[sid], ubm,
                                     speaker_id=sid)
                    registry.add(RegistryEntry(speaker_id=sid, cluster_id=f"c{number % 4}",
                                               model=model))
            results, report = [], None
            # After each trial, a running report over the last report_window
            # trials: every report does the same work, and the reports are
            # spread through the run as the trials are.
            with rec.phase("identify"):
                for trial in world["trials"]:
                    results.append(rec.call("identify_ms", evaluation.identify, trial, registry,
                                            policy, ubm=ubm, trial=trial.trial_id))
                    if len(results) >= self.report_window:
                        report = rec.call("evaluate_s", evaluation.summarize,
                                          results[-self.report_window:],
                                          LLR_THRESHOLD, "llr-normalized")
            rounds.append({"ubm": ubm, "registry": registry, "results": results,
                           "report": report})
        return {"rounds": rounds, "policy": policy}

    def check(self, inputs, state, rec):
        for rnd in state["rounds"]:
            for result in rnd["results"]:
                _check_ranking(rec, ("identify_ms", result.trial_id), result, state["policy"])
            _check_report(rec, rnd["report"], rnd["results"][-self.report_window:])
        first = state["rounds"][0]
        frames = inputs["worlds"][0]["trials"][0].test_features.frames
        sid, raw = first["results"][0].ranked[0][0], first["results"][0].ranked[0][1]
        oracle = (_naive_log_likelihood(frames, first["registry"].get(sid).model.gmm)
                  - _naive_log_likelihood(frames, first["ubm"].gmm))
        if abs(raw - oracle) > 1e-9 * abs(oracle):
            rec.fail(("identify_ms", 0), f"LLR {raw!r} != naive oracle {oracle!r}")
        # Accuracy over every world's trials; scores are cohort-normalised per trial.
        report = evaluation.summarize([r for rnd in state["rounds"] for r in rnd["results"]],
                                      LLR_THRESHOLD, "llr-normalized")
        return {"top1": report.top1_accuracy, "eer": report.eer}


def _naive_log_likelihood(frames, mixture):
    """Sum over frames of log sum_c w_c N(x; mu_c, var_c), one component at a time."""
    log_w = np.log(mixture.weights)
    total = 0.0
    for x in frames:
        terms = [log_w[c] + gmm.component_log_density(x, mixture.means[c], mixture.variances[c])
                 for c in range(mixture.num_components)]
        peak = max(terms)
        total += peak + math.log(sum(math.exp(t - peak) for t in terms))
    return total


def _check_report(rec, report, results):
    """Top-1 recomputed from the rankings; EER is a rate."""
    hits = sum(1 for r in results if r.ranked[0][0] == r.true_speaker_id)
    if report.top1_accuracy != hits / len(results):
        rec.fail(("evaluate_s", 0), "top-1 disagrees with the rankings")
    if not 0.0 <= report.eer <= 1.0:
        rec.fail(("evaluate_s", 0), f"EER {report.eer} outside [0, 1]")


class IvectorCosine:
    """Total-variability training, i-vector enrollment, cosine trials.

    The UBM is the generating mixture itself, so the gmm layer does little.
    Every round repeats the whole pipeline on the same inputs: statistics,
    TV training, enrollment, all trials and one report, so each round must
    give the same TV model and rankings.
    """

    name = "ivector_cosine"
    aliases = {"tv_train_s": "train_s", "report_s": "evaluate_s"}
    components = 64
    rank = 100
    tv_iterations = 3
    speakers = 100
    speaker_spread = 0.4
    enroll_frames = 1000
    test_frames = 300
    trials = 300
    rounds_per_second = 1.0 / 7.5

    def setup(self, seed, seconds, workdir):
        rng = np.random.default_rng(seed)
        base = _base_gmm(rng, self.components, FEATURE_DIM)
        ubm = speaker_models.Ubm(gmm=base)
        truths = _speaker_truths(rng, base, self.speakers, self.speaker_spread)
        ids = sorted(truths)
        enroll = {sid: experiment.sample_from_gmm(truths[sid], self.enroll_frames, rng)
                  for sid in ids}
        trials = []
        for j in range(self.trials):
            sid = ids[j % len(ids)]
            trials.append((f"trial{j:04d}", sid,
                           experiment.sample_from_gmm(truths[sid], self.test_frames, rng)))
        digest = _digest(*(enroll[s].frames for s in ids), *(t[2].frames for t in trials))
        return {"seed": seed, "ubm": ubm, "enroll": enroll, "trials": trials, "digest": digest,
                "rounds": _scaled_count(seconds, self.rounds_per_second)}

    def _train(self, train_stats, ubm, seed):
        tv = total_variability.init_tv(ubm, self.rank, rng_seed=seed)
        return total_variability.train_tv(train_stats, tv, iterations=self.tv_iterations)

    def _enroll(self, stats, ubm, tv, sid):
        model = speaker_models.map_adapt(stats, ubm, speaker_id=sid)
        return model, total_variability.extract_ivector(stats, tv)

    def _identify(self, trial_id, sid, feats, ubm, tv, registry, policy):
        stats = speaker_models.accumulate_stats(feats, ubm)
        ivector = total_variability.extract_ivector(stats, tv)
        trial = Trial(trial_id=trial_id, test_ivector=ivector, true_speaker_id=sid)
        return evaluation.identify(trial, registry, policy), stats, ivector

    def run(self, inputs, rec):
        ubm = inputs["ubm"]
        rec.mark_ubm(ubm)
        policy = DecisionPolicy(threshold=COSINE_THRESHOLD, mode="cosine")
        first, repeats = None, []
        for _ in range(inputs["rounds"]):
            # The enrollment utterances are also the TV training set.
            with rec.phase("ingest"):
                stats = {sid: rec.call("ingest_ms", speaker_models.accumulate_stats, feats, ubm)
                         for sid, feats in inputs["enroll"].items()}
            with rec.phase("train"):
                tv = rec.call("train_s", self._train, list(stats.values()), ubm, inputs["seed"])
            registry = SpeakerRegistry()
            with rec.phase("enroll"):
                for number, sid in enumerate(stats):
                    model, ivector = rec.call("enroll_ms", self._enroll, stats[sid], ubm, tv, sid)
                    registry.add(RegistryEntry(speaker_id=sid, cluster_id=f"c{number % 4}",
                                               model=model, ivector=ivector))
            with rec.phase("identify"):
                outputs = [rec.call("identify_ms", self._identify, trial_id, sid, feats, ubm,
                                    tv, registry, policy, trial=trial_id)
                           for trial_id, sid, feats in inputs["trials"]]
            results = [out[0] for out in outputs]
            with rec.phase("evaluate"):
                report = rec.call("evaluate_s", evaluation.summarize, results,
                                  COSINE_THRESHOLD, "cosine")
            # Later rounds keep digests only, so memory does not grow with rounds.
            repeats.append((_digest(tv.t_matrix), _results_digest(results), report.eer))
            if first is None:
                first = {"tv": tv, "outputs": outputs, "report": report}
        return dict(first, policy=policy, repeats=repeats)

    def check(self, inputs, state, rec):
        for index, repeat in enumerate(state["repeats"][1:], 1):
            if repeat != state["repeats"][0]:
                rec.fail(("train_s", index), "a round's TV model or rankings differ from the first")
        tv = state["tv"]
        results = [out[0] for out in state["outputs"]]
        for j, result in enumerate(results):
            _check_ranking(rec, ("identify_ms", j), result, state["policy"])
            if any(not -1.0 <= norm <= 1.0 for _, _, norm, _ in result.ranked):
                rec.fail(("identify_ms", j), "cosine outside [-1, 1]")
        _, stats, ivector = state["outputs"][0]
        expected = _dense_ivector(stats, tv)
        error = np.linalg.norm(ivector.w - expected) / np.linalg.norm(expected)
        if error > 1e-9:
            rec.fail(("identify_ms", 0), f"i-vector differs from dense solve by {error:.3g}")
        report = state["report"]
        _check_report(rec, report, results)
        return {"top1": report.top1_accuracy, "eer": report.eer}


def _dense_ivector(stats, tv):
    """Solve (I + T' S^-1 N T) w = T' S^-1 F~ with a dense LU solve."""
    n = np.repeat(stats.zeroth, tv.dim_k)
    f_centered = stats.first.reshape(-1) - n * tv.m
    t_scaled = tv.t_matrix / tv.sigma[:, None]
    precision = np.eye(tv.rank_R) + t_scaled.T @ (tv.t_matrix * n[:, None])
    return np.linalg.solve(precision, t_scaled.T @ f_centered)


# --- cli_batch -----------------------------------------------------------------

RATE_HZ = 16000
# Peterson & Barney average adult vowel formants F1..F3 (Hz).
VOWEL_FORMANTS = np.array([
    [270, 2290, 3010], [390, 1990, 2550], [530, 1840, 2480], [660, 1720, 2410],
    [730, 1090, 2440], [570, 840, 2410], [440, 1020, 2240], [300, 870, 2240],
    [490, 1350, 1690], [520, 1190, 2390],
], dtype=np.float64)


def _resonator(signal, freq_hz, bandwidth_hz):
    r = math.exp(-math.pi * bandwidth_hz / RATE_HZ)
    theta = 2.0 * math.pi * freq_hz / RATE_HZ
    return lfilter([1.0 - r], [1.0, -2.0 * r * math.cos(theta), r * r], signal)


def _voice(rng):
    """A speaker's source-filter parameters: pitch, vowel resonances, habits."""
    tract = rng.uniform(0.8, 1.25)
    return {
        "f0": rng.uniform(85.0, 260.0),
        "formants": VOWEL_FORMANTS * tract * rng.uniform(0.8, 1.2, VOWEL_FORMANTS.shape),
        "vowel_use": rng.dirichlet(np.full(len(VOWEL_FORMANTS), 0.3)),
        "bandwidths": rng.uniform(50.0, 160.0, size=3),
        "tilt": rng.uniform(0.8, 0.97),
        "breath": rng.uniform(0.02, 0.15),
        "fricative_share": rng.uniform(0.05, 0.3),
        "fricative_hz": rng.uniform(2500.0, 6000.0),
    }


def _utterance(voice, seconds, rng):
    """Vowel-like voiced segments, fricatives and pauses, scaled into [-1, 1)."""
    total = int(seconds * RATE_HZ)
    parts = []
    length = 0
    while length < total:
        n = int(rng.uniform(0.08, 0.22) * RATE_HZ)
        kind = rng.random()
        if kind < 0.1:
            segment = 0.002 * rng.standard_normal(n)
        elif kind < 0.1 + voice["fricative_share"]:
            segment = _resonator(rng.standard_normal(n), voice["fricative_hz"], 900.0)
        else:
            f0 = voice["f0"] * (1.0 + 0.06 * rng.standard_normal()) * np.linspace(
                1.0, rng.uniform(0.9, 1.1), n)
            source = np.diff(np.floor(np.cumsum(f0 / RATE_HZ)), prepend=0.0)
            source = lfilter([1.0], [1.0, -voice["tilt"]], source)
            source += voice["breath"] * rng.standard_normal(n)
            vowel = rng.choice(len(VOWEL_FORMANTS), p=voice["vowel_use"])
            segment = source
            for freq, bandwidth in zip(voice["formants"][vowel], voice["bandwidths"]):
                segment = _resonator(segment, freq, bandwidth)
            segment *= np.hanning(n) ** 0.3
        parts.append(segment / (np.max(np.abs(segment)) + 1e-12) * rng.uniform(0.2, 0.6))
        length += n
    signal = np.concatenate(parts)[:total]
    signal += 0.001 * rng.standard_normal(total)
    return np.clip(signal, -1.0, 32767.0 / 32768.0)


class CliBatch:
    """Batch use of the `voxid` CLI, in-process, on synthesized speech-like WAVs."""

    name = "cli_batch"
    aliases = {"ubm_train_s": "train_s"}
    speakers = 20
    tests_per_speaker = 5
    enroll_files = 3
    enroll_seconds = 4.0
    test_seconds = 3.0
    ubm_files = 2          # enrollment WAVs per speaker in the UBM training set
    rounds_per_second = 1.0 / 7.5
    ubm_config = "num_components = 32\nmax_iterations = 8\nconvergence_tol = 1e-12\n"

    def setup(self, seed, seconds, workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(os.path.join(workdir, "wav"))
        rng = np.random.default_rng(seed)
        files = []  # (speaker id, role, wav path, audio seconds)
        h = hashlib.sha256()
        for i in range(self.speakers):
            sid = f"spk{i:02d}"
            voice = _voice(rng)
            roles = [(f"e{j}", self.enroll_seconds) for j in range(self.enroll_files)] + [
                (f"t{j}", self.test_seconds) for j in range(self.tests_per_speaker)]
            for role, length in roles:
                path = os.path.join(workdir, "wav", f"{sid}-{role}.wav")
                clip = audio.AudioClip(samples=_utterance(voice, length, rng),
                                       sample_rate_hz=RATE_HZ)
                audio.write_wav(clip, path)
                with open(path, "rb") as fh:
                    h.update(fh.read())
                files.append((sid, role, path, length))
        conf = os.path.join(workdir, "ubm.conf")
        with open(conf, "w", encoding="utf-8") as fh:
            fh.write(self.ubm_config)
        return {"seed": seed, "workdir": workdir, "files": files, "ubm_conf": conf,
                "digest": h.hexdigest(), "rounds": _scaled_count(seconds, self.rounds_per_second)}

    def run(self, inputs, rec):
        work = inputs["workdir"]
        paths = _cli_paths(inputs)
        for sub in ("feat", "eval"):  # a second pass starts from the WAVs alone
            shutil.rmtree(os.path.join(work, sub), ignore_errors=True)
            os.makedirs(os.path.join(work, sub))
        for path in (paths["ubm"], paths["registry"]):
            if os.path.exists(path):
                os.remove(path)
        enroll = {}
        for sid, role, _, _ in inputs["files"]:
            if role.startswith("e"):
                enroll.setdefault(sid, []).append(paths["feat"][(sid, role)])
        ubm_feats = [path for files in enroll.values() for path in files[:self.ubm_files]]

        def cli_call(metric, argv, trial=None):
            out = rec.call(metric, _run_cli, argv, trial=trial)
            if out is not None and out[0] != 0:
                rec.fail(rec.last_op, f"exit {out[0]}: {out[2].strip()}")
            return out

        with rec.phase("ingest"):
            for _, _, wav, _ in inputs["files"]:
                cli_call("ingest_ms", ["features", "--out-dir", os.path.join(work, "feat"), wav])
        identified = []
        rounds = inputs["rounds"]
        for index in range(rounds):
            with rec.phase("train"):
                cli_call("train_s", ["--config", inputs["ubm_conf"], "--seed", str(inputs["seed"]),
                                     "train-ubm", "--output", paths["ubm"], *ubm_feats])
            if os.path.exists(paths["registry"]):
                os.remove(paths["registry"])
            with rec.phase("enroll"):
                for number, (sid, files) in enumerate(enroll.items()):
                    cli_call("enroll_ms", ["enroll", "--speaker-id", sid, "--cluster",
                                           f"c{number % 4}", "--registry", paths["registry"],
                                           "--ubm", paths["ubm"], *files])
            with rec.phase("identify"):
                for _, path in _round_slice(paths["tests"], index, rounds):
                    identified.append(cli_call(
                        "identify_ms", ["identify", "--registry", paths["registry"],
                                        "--ubm", paths["ubm"], "--mode", "llr-normalized",
                                        "--threshold", str(LLR_THRESHOLD), path],
                        trial=os.path.basename(path)))
            with rec.phase("evaluate"):
                out = rec.call("evaluate_s", _evaluate_demos, os.path.join(work, "eval"))
                if out is not None and out[0] != 0:
                    rec.fail(rec.last_op, f"exit {out[0]}: {out[2].strip()}")
        return {"identified": identified}

    def check(self, inputs, state, rec):
        work = inputs["workdir"]
        paths = _cli_paths(inputs)
        hits = 0
        for j, ((sid, _), out) in enumerate(zip(paths["tests"], state["identified"])):
            try:
                rows = _identify_table(out[1]) if out is not None and out[0] == 0 else []
            except ValueError:
                rows = []
            if len(rows) != self.speakers:
                rec.fail(("identify_ms", j), "identify table incomplete")
                continue
            if [r[2] for r in rows] != sorted((r[2] for r in rows), reverse=True):
                rec.fail(("identify_ms", j), "identify table not sorted")
            hits += rows[0][0] == sid
        reports = sorted(os.path.join(work, "eval", name)
                         for name in os.listdir(os.path.join(work, "eval"))
                         if name.endswith(".json"))
        artifacts = ([(p, "features") for p in sorted(paths["feat"].values())]
                     + [(paths["ubm"], "ubm"), (paths["registry"], "registry")]
                     + [(p, "report") for p in reports])
        digests = {}
        for path, kind in artifacts:
            rec.attempted += 1
            try:
                artifact = store.load(path, kind)
            except (VoxidError, OSError) as exc:
                rec.fail(("reload", path), f"{kind} does not reload: {exc}")
                continue
            if kind == "registry" and len(artifact) != self.speakers:
                rec.fail(("reload", path), "registry lacks enrolled speakers")
            with open(path, "rb") as fh:
                digests[os.path.relpath(path, work)] = hashlib.sha256(fh.read()).hexdigest()
        if len(reports) != 3:  # stage 1 sweeps two thresholds, stage 2 one
            rec.fail(("evaluate_s", 0), f"expected 3 evaluate reports, found {len(reports)}")
        sid, role, wav, _ = inputs["files"][0]
        expected = features.extract_mfcc(audio.read_wav(wav)).frames
        stored = store.load(paths["feat"][(sid, role)], "features").frames
        if not np.array_equal(stored, expected.astype(np.float32).astype(np.float64)):
            rec.fail(("ingest_ms", 0), ".feat differs from in-process extract_mfcc")
        audio_s = sum(length for _, _, _, length in inputs["files"])
        return {"top1": hits / len(paths["tests"]), "eer": None, "artifacts": digests,
                "ingest_x_realtime": audio_s / sum(rec.samples["ingest_ms"])}


def _cli_paths(inputs):
    work = inputs["workdir"]
    feat = {(sid, role): os.path.join(work, "feat", f"{sid}-{role}.feat")
            for sid, role, _, _ in inputs["files"]}
    return {
        "ubm": os.path.join(work, "ubm.json"),
        "registry": os.path.join(work, "registry.json"),
        "feat": feat,
        "tests": [(sid, feat[(sid, role)]) for sid, role, _, _ in inputs["files"]
                  if role.startswith("t")],
    }


def _evaluate_demos(out_dir):
    """`voxid evaluate` on the stage-1 and stage-2 demo configs, one after the other."""
    codes, stdout, stderr = [], "", ""
    for stage in ("stage1", "stage2"):
        code, out, err = _run_cli(["evaluate", "--output-prefix", os.path.join(out_dir, stage),
                                   os.path.join(DEMOS, f"experiment-{stage}.conf")])
        codes.append(code)
        stdout, stderr = stdout + out, stderr + err
    return max(codes), stdout, stderr


def _run_cli(argv):
    """One in-process `voxid` call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _identify_table(stdout):
    """(speaker, raw, score, decision) rows of `voxid identify` output."""
    rows = []
    for line in stdout.splitlines()[1:]:
        sid, raw, score, decision = line.split()
        rows.append((sid, float(raw), float(score), decision))
    return rows


WORKLOADS = {w.name: w for w in (GmmUbmLlr(), IvectorCosine(), CliBatch())}
