"""Speaker registry, identification trials, threshold sweeps and
FA/FR/EER bookkeeping.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import DuplicateSpeakerId, EmptyRegistry, EmptyScoreSet, ModeMismatch, NanScore
from .features import FeatureMatrix
from .scoring import BACKENDS, DecisionPolicy, decide
from .speaker_models import SpeakerModel, Ubm
from .total_variability import IVector


@dataclass
class RegistryEntry:
    speaker_id: str
    cluster_id: str
    model: SpeakerModel
    ivector: IVector | None = None
    language_tag: str = ""
    is_impostor: bool = False


@dataclass
class SpeakerRegistry:
    entries: list[RegistryEntry] = field(default_factory=list)
    # id -> first entry with that id over the first n entries, and (n, the n-th entry);
    # neither repr nor equality sees them
    _index: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _indexed: tuple = field(default=(0, None), init=False, repr=False, compare=False)

    def _ids(self) -> dict:
        # index entries appended since, also directly to the list; rebuild once the n-th has
        # left its place (a deletion, truncation, clear or reorder). Not seen: an entry
        # replaced in place before the n-th.
        entries, (n, last) = self.entries, self._indexed
        if n and (len(entries) < n or entries[n - 1] is not last):
            self._index, n = {}, 0
        for e in entries[n:]:
            self._index.setdefault(e.speaker_id, e)
        self._indexed = len(entries), entries[-1] if entries else None
        return self._index

    def add(self, entry: RegistryEntry):
        if entry.speaker_id in self._ids():
            raise DuplicateSpeakerId(f"speaker {entry.speaker_id!r} already enrolled")
        self.entries.append(entry)

    def get(self, speaker_id: str) -> RegistryEntry:
        return self._ids()[speaker_id]

    def __len__(self):
        return len(self.entries)


@dataclass(frozen=True)
class Trial:
    trial_id: str
    test_features: FeatureMatrix | None = None
    test_ivector: IVector | None = None
    true_speaker_id: str | None = None


@dataclass(frozen=True)
class TrialResult:
    trial_id: str
    true_speaker_id: str | None
    # (speaker_id, raw score, normalized/decision score, accepted)
    ranked: list[tuple[str, float, float, bool]]


@dataclass
class EvalReport:
    per_trial: list[TrialResult]
    threshold: float
    mode: str
    false_accepts: int = 0
    false_rejects: int = 0
    eer: float = 0.0
    top1_accuracy: float = 0.0


def identify(trial: Trial, registry: SpeakerRegistry, policy: DecisionPolicy,
             ubm: Ubm | None = None) -> TrialResult:
    """Score a trial against every registry entry, rank and decide.

    The policy's mode names the `scoring.BACKENDS` row that scores the trial's
    test artifact against the whole registry: cohort-normalised LLR of its
    features, or cosine of its i-vector.
    """
    if not registry.entries:
        raise EmptyRegistry("no enrolled speakers")
    kind, score, _ = BACKENDS[policy.mode]
    test = getattr(trial, f"test_{kind}")
    if test is None:
        raise ModeMismatch(f"{policy.mode} mode needs the trial's test_{kind}")
    raw, decision = score(test, registry.entries, ubm)
    # plain str, float and bool, so reports encode as JSON and repr as Python floats;
    # a score that is its own decision score is one float object in both fields
    raw_s = raw.tolist()
    norm_s = raw_s if decision is raw else decision.tolist()
    ranked = list(zip([e.speaker_id for e in registry.entries], raw_s, norm_s,
                      decide(decision, policy).tolist()))
    # decision score high first, then id; stable sorts keep full ties in registry order
    ranked.sort(key=itemgetter(0))
    ranked.sort(key=itemgetter(2), reverse=True)
    return TrialResult(
        trial_id=trial.trial_id, true_speaker_id=trial.true_speaker_id, ranked=ranked
    )


def _error_rates(target, nontarget):
    targets, nontargets = np.fromiter(target, np.float64), np.fromiter(nontarget, np.float64)
    if targets.size == 0 or nontargets.size == 0:
        raise EmptyScoreSet("need both target and nontarget scores")
    pooled = np.sort(np.concatenate([targets, nontargets]))
    if np.isnan(pooled[-1]):  # a sort puts NaN last
        raise NanScore("a score is NaN, which no threshold sweep can place")
    # a threshold ends each run of equal pooled scores, at index end; below of the end + 1
    # scores up to it are targets, so FAR and FRR are exact count / size rates
    ends = np.flatnonzero(np.append(pooled[1:] != pooled[:-1], True))
    thresholds = pooled[ends]
    below = np.cumsum(np.bincount(np.searchsorted(thresholds, targets), minlength=ends.size))
    far = (nontargets.size - (ends + 1 - below)) / nontargets.size
    return thresholds, far, below / targets.size


def compute_eer(target_scores, nontarget_scores) -> float:
    """Equal error rate via a sweep over the sorted union of scores.

    Returns (FAR + FRR) / 2 at the threshold minimizing |FAR - FRR|,
    ties broken toward the lower threshold.
    """
    _, far, frr = _error_rates(target_scores, nontarget_scores)
    best = int(np.argmin(np.abs(far - frr)))  # argmin keeps the first (lowest) tie
    return float((far[best] + frr[best]) / 2.0)


def det_points(target_scores, nontarget_scores) -> list[tuple[float, float]]:
    """(FAR, FRR) at each candidate threshold, in increasing threshold order."""
    _, far, frr = _error_rates(target_scores, nontarget_scores)
    return list(zip(far.tolist(), frr.tolist()))


def summarize(results: list[TrialResult], threshold: float, mode: str) -> EvalReport:
    """Assemble FA/FR counts, EER and top-1 accuracy from trial results.

    A trial counts one false accept if any non-true speaker is accepted
    and one false reject if the true speaker (when enrolled) is not.
    """
    fa = 0
    fr = 0
    top1_hits = 0
    labelled = 0
    target_scores: list[float] = []
    nontarget_scores: list[float] = []

    for res in results:
        truth = res.true_speaker_id  # a speaker id is a str, so a None truth matches none
        enrolled = accepted_true = accepted_other = False
        for sid, _, norm_s, accepted in res.ranked:
            if sid != truth:  # the common case first
                nontarget_scores.append(norm_s)
                if accepted:
                    accepted_other = True
            else:
                enrolled = True
                target_scores.append(norm_s)
                if accepted:
                    accepted_true = True
        if accepted_other:
            fa += 1
        if enrolled:
            labelled += 1
            if res.ranked[0][0] == truth:
                top1_hits += 1
            if not accepted_true:
                fr += 1

    eer = 0.0
    if target_scores and nontarget_scores:
        eer = compute_eer(target_scores, nontarget_scores)
    top1 = top1_hits / labelled if labelled else 0.0
    return EvalReport(
        per_trial=results,
        threshold=threshold,
        mode=mode,
        false_accepts=fa,
        false_rejects=fr,
        eer=eer,
        top1_accuracy=top1,
    )


def report_to_csv(report: EvalReport) -> str:
    """One row per trial x speaker, scores written with repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial_id", "speaker_id", "raw_score", "normalized_score", "decision"])
    writer.writerows((res.trial_id, sid, repr(raw_s), repr(norm_s),
                      "accept" if accepted else "reject")
                     for res in report.per_trial for sid, raw_s, norm_s, accepted in res.ranked)
    return buf.getvalue()
