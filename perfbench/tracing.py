"""Span tracing for the traced benchmark run.

The untraced run never installs a wrapper. The traced run calls
`Tracer.install()`, which replaces each layer's public functions (and the
private seams in `PRIVATE_SEAMS`) by attribute assignment on the voxid
modules, including every other voxid module that imported the same
function under its own name. `Tracer.uninstall()` puts the originals back.
Nothing under `src/` is edited.

A span is `[name, layer, start, end, parent, trial, attrs]`. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = (
    "audio", "features", "gmm", "speaker_models", "total_variability",
    "scoring", "evaluation", "experiment", "store", "cli",
)

# Private functions that per-layer metrics need a span around.
PRIVATE_SEAMS = {
    "gmm": ("_initial_model",),
    "total_variability": ("_posterior",),
    "store": ("_atomic_write",),
}

NAME, LAYER, START, END, PARENT, TRIAL, ATTRS = range(7)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Counters recorded at a layer boundary: hook(tracer, args, kwargs, result)
# returns the span's attrs. Hooks run only when the call returned normally.

def _density(tracer, args, kwargs, result):
    frames, gmm = _arg(args, kwargs, 0, "frames"), _arg(args, kwargs, 1, "gmm")
    return {"lc": frames.shape[0] * gmm.num_components, "ubm": tracer.is_ubm(gmm)}


def _train_ubm(tracer, args, kwargs, result):
    tracer.add_ubm(result.gmm)
    return None


def _load(tracer, args, kwargs, result):
    kind = _arg(args, kwargs, 1, "expected_kind")
    if kind == "ubm":
        tracer.add_ubm(result.gmm)
    return {"kind": kind, "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _save(tracer, args, kwargs, result):
    return {"kind": _arg(args, kwargs, 1, "kind"),
            "bytes": os.path.getsize(_arg(args, kwargs, 2, "path"))}


HOOKS = {
    "gmm.frame_component_log_densities": _density,
    "speaker_models.train_ubm": _train_ubm,
    "store.load": _load,
    "store.save": _save,
    "store._atomic_write": lambda t, a, k, r: {"bytes": len(_arg(a, k, 1, "data"))},
    "audio.read_wav": lambda t, a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "features.extract_mfcc": lambda t, a, k, r: {"frames": r.count_L},
    "evaluation.summarize": lambda t, a, k, r: {
        "scores": sum(len(res.ranked) for res in _arg(a, k, 0, "results"))},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.trial = None
        self._stack = []
        self._ubm_gmms = []  # strong references, so identity checks stay valid
        self._patched = []   # (module, attribute, original)

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.trial, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index, attrs=None):
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._stack.pop()

    def add_ubm(self, gmm):
        """Mark a mixture as a UBM, so density calls against it are counted apart."""
        self._ubm_gmms.append(gmm)

    def is_ubm(self, gmm):
        return any(gmm is known for known in self._ubm_gmms)

    def _wrap(self, layer, fn):
        qualname = f"{layer}.{fn.__name__}"
        hook = HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(qualname, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index)
            if hook is not None:
                tracer.spans[index][ATTRS] = hook(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        for layer in LAYERS:
            __import__(f"voxid.{layer}")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"voxid.{layer}"]
            for name, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if name.startswith("_") and name not in PRIVATE_SEAMS.get(layer, ()):
                    continue
                wrappers[obj] = self._wrap(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "voxid" and not modname.startswith("voxid."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()


def span_cost(calls=20000):
    """Seconds one wrapped call adds, measured on a no-op function."""
    def noop():
        return 0

    traced = Tracer()._wrap("bench", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - plain, 0.0) / calls


def _durations(spans):
    duration = [span[END] - span[START] for span in spans]
    children = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]] += duration[index]
    return duration, [d - c for d, c in zip(duration, children)]


def phase_breakdown(spans):
    """Per top-level benchmark phase: wall time and self time of each layer.

    Every span's self time lands in exactly one layer ("bench" for the
    benchmark's own spans), so each phase's layer self times sum to its
    wall time.
    """
    duration, self_time = _durations(spans)
    root = [0] * len(spans)
    phases = {}
    for index, span in enumerate(spans):
        root[index] = index if span[PARENT] is None else root[span[PARENT]]
        top = spans[root[index]]
        entry = phases.setdefault(top[NAME], {"wall_s": 0.0, "self_s": {}})
        if root[index] == index:
            entry["wall_s"] += duration[index]
        layers = entry["self_s"]
        layers[span[LAYER]] = layers.get(span[LAYER], 0.0) + self_time[index]
    return phases


def layer_metrics(spans):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    duration, self_time = _durations(spans)
    total = {}
    calls = {}
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for index, span in enumerate(spans):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + duration[index]
        calls[name] = calls.get(name, 0) + 1
        layer_self[span[LAYER]] = layer_self.get(span[LAYER], 0.0) + self_time[index]

    def secs(*names):
        return sum(total.get(name, 0.0) for name in names)

    def count(name):
        return calls.get(name, 0)

    def attr_sum(name, key):
        return sum(span[ATTRS][key] for span in spans if span[NAME] == name and span[ATTRS])

    density = "gmm.frame_component_log_densities"
    trials = count("bench.identify_ms")
    in_trial = [s for s in spans if s[NAME] == density and s[TRIAL] is not None]
    em_iterations = sum(1 for s in spans
                        if s[NAME] == density and s[PARENT] is not None
                        and spans[s[PARENT]][NAME] == "gmm.em_fit_detailed")
    registry_saves = [s[ATTRS]["bytes"] for s in spans
                      if s[NAME] == "store.save" and s[ATTRS]["kind"] == "registry"]
    identify_self = sum(self_time[i] for i, s in enumerate(spans)
                        if s[NAME] == "evaluation.identify")

    metrics = {
        "audio.read_wav_s": secs("audio.read_wav"),
        "audio.bytes_read": attr_sum("audio.read_wav", "bytes"),
        "features.extract_mfcc_s": secs("features.extract_mfcc"),
        "features.magnitude_spectrum_s": secs("features.magnitude_spectrum"),
        "features.frames": attr_sum("features.extract_mfcc", "frames"),
        "gmm.kmeans_s": secs("gmm._initial_model"),
        "gmm.em_s": secs("gmm.em_fit_detailed") - secs("gmm._initial_model"),
        "gmm.em_iterations": em_iterations,
        "gmm.density_s": secs(density),
        "gmm.density_calls": count(density),
        "gmm.density_frame_components": attr_sum(density, "lc"),
        "gmm.density_calls_per_trial": len(in_trial) / trials if trials else 0.0,
        "gmm.ubm_density_calls_per_trial":
            sum(1 for s in in_trial if s[ATTRS]["ubm"]) / trials if trials else 0.0,
        "speaker_models.accumulate_stats_s": secs("speaker_models.accumulate_stats"),
        "speaker_models.accumulate_stats_calls": count("speaker_models.accumulate_stats"),
        "speaker_models.map_adapt_s": secs("speaker_models.map_adapt"),
        "total_variability.train_tv_s": secs("total_variability.train_tv"),
        "total_variability.posterior_s": secs("total_variability._posterior"),
        "total_variability.posterior_calls": count("total_variability._posterior"),
        "total_variability.extract_ivector_s": secs("total_variability.extract_ivector"),
        "scoring.llr_score_s": secs("scoring.llr_score"),
        "scoring.llr_score_calls": count("scoring.llr_score"),
        "scoring.cohort_s": secs("scoring.cohort_from_scores", "scoring.normalize_score"),
        "scoring.cosine_score_s": secs("scoring.cosine_score"),
        "scoring.cosine_score_calls": count("scoring.cosine_score"),
        "evaluation.identify_self_s": identify_self,
        "evaluation.summarize_s": secs("evaluation.summarize"),
        "evaluation.compute_eer_s": secs("evaluation.compute_eer"),
        "evaluation.scores": attr_sum("evaluation.summarize", "scores"),
        "experiment.run_experiment_s": secs("experiment.run_experiment"),
        "experiment.build_world_s": secs("experiment.build_world"),
        "experiment.attach_ivectors_s": secs("experiment.attach_ivectors"),
        "store.save_calls": count("store.save"),
        "store.load_calls": count("store.load"),
        "store.bytes_written": attr_sum("store._atomic_write", "bytes"),
        "store.bytes_read": attr_sum("store.load", "bytes"),
        "store.registry_bytes": registry_saves[-1] if registry_saves else 0,
    }
    for kind in STORE_KINDS:
        metrics[f"store.save_s.{kind}"] = sum(
            duration[i] for i, s in enumerate(spans)
            if s[NAME] == "store.save" and s[ATTRS]["kind"] == kind)
        metrics[f"store.load_s.{kind}"] = sum(
            duration[i] for i, s in enumerate(spans)
            if s[NAME] == "store.load" and s[ATTRS]["kind"] == kind)
    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_s"] = secs(f"cli.cmd_{command}")
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


# Artifact kinds and CLI commands the cli_batch workload exercises.
STORE_KINDS = ("features", "ubm", "registry", "report")
CLI_COMMANDS = ("features", "train_ubm", "enroll", "identify", "evaluate")
