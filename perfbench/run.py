"""voxid benchmark: one workload per process, inputs generated from a seed.

    python3 perfbench/run.py --workload gmm_ubm_llr --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from anywhere; it imports voxid from the `src/` directory next to
`perfbench/` and fails (non-zero exit, no result line) when that is missing. It
prints a table of every metric with its unit and sample count, then, as
its last line, one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the `end_to_end` metrics of BENCHMARK.json with `--trace 0`,
the `per_layer` metrics with `--trace 1`). End-to-end times are scaled to
a fixed machine speed by `SpeedProbe`. A traced run times the
workload untraced, then traced, and reports traced minus untraced time as
the tracing overhead. The full record (environment,
counts, artifact digests, per-phase breakdown, spans) is written to
`.perfbench_out/` in the checkout. `--workload all` runs each workload in
its own child process, so each reports its own peak RSS.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))
# Set before numpy loads OpenBLAS. One BLAS thread leaves the second core to
# the OS, which keeps run-to-run spread down; the benchmark starts no threads.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
# numpy asks the kernel for transparent huge pages on large arrays. Whether
# it gets them depends on how fragmented memory is at that moment, not on
# the program, so every process runs on ordinary pages instead.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

WORKLOAD_NAMES = ("gmm_ubm_llr", "ivector_cosine", "cli_batch")
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.5
PROBE_WINDOW = 8
PAGE_BYTES = 4096
# Any fixed value serves; this is near the probe's time on the 2.1 GHz Xeon
# VM the benchmark was built on.
PROBE_NOMINAL_S = 0.015
# glibc's adaptive mmap threshold served the multi-megabyte numpy temporaries
# from fresh mmap pages in some processes and from reused heap in others, so
# one seed's per-call times were bimodal (ingest 8 or 16 ms). Fixed
# thresholds give every run the state the adaptive threshold tends to:
# allocations below 32 MiB (its ceiling) come from the heap, which is not
# trimmed below 256 MiB; larger ones are mapped afresh.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 256 << 20


def _pin_malloc():
    """Fix glibc malloc's thresholds; True when glibc accepted both."""
    import ctypes
    libc = ctypes.CDLL("libc.so.6")
    return bool(libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and libc.mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


MALLOC_PINNED = _pin_malloc()  # before numpy allocates anything


def _import_voxid():
    """Import voxid from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "voxid", "__init__.py")):
        sys.exit(f"perfbench: no voxid sources under {src}")
    sys.path.insert(0, src)
    import voxid
    if os.path.dirname(os.path.dirname(os.path.abspath(voxid.__file__))) != src:
        sys.exit(f"perfbench: voxid was imported from {voxid.__file__}, not {src}")


class SpeedProbe:
    """A fixed numpy and Python kernel that gauges the machine's current speed.

    The host's CPU speed changed by up to a third within minutes (the same
    run of one workload took 26 or 33 s), far beyond what medians within a
    run can remove. The probe, which does not touch voxid, runs between
    operations every PROBE_INTERVAL_S and on each side of every phase. Each timed
    operation is scaled by PROBE_NOMINAL_S over the median of the
    PROBE_WINDOW probes nearest it in time, so it reads as if measured at a
    fixed machine speed. Its mix of work mirrors voxid's: a (frames,
    components, dims) broadcast with exp, BLAS products, a loop of small
    numpy calls, an interpreted loop and a pass over an array larger than
    the caches.
    """

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        # Page-aligned, so the probe's speed does not depend on where the
        # allocator happened to put its arrays in this process.
        self._cube = self._aligned((300, 64, 20), rng)
        self._left = self._aligned((300, 1280), rng)
        self._right = self._aligned((1280, 64), rng)
        self._scores = self._aligned((3000,), rng)
        self._stream = self._aligned((4 << 20,), rng)  # 32 MiB
        # Output buffers, so the probe leaves the heap as it found it and
        # voxid's allocations do not depend on when probes ran.
        self._cube_out = self._aligned(self._cube.shape)
        self._product = self._aligned((300, 64))
        self._above = self._aligned(self._scores.shape, dtype=bool)
        self.midpoints = []
        self.samples = []
        self.spent = 0.0
        self._due = 0.0

    def _aligned(self, shape, rng=None, dtype=float):
        """An array of shape starting on a page boundary; normal draws if rng."""
        np = self._np
        size = int(np.prod(shape))
        itemsize = np.dtype(dtype).itemsize
        buffer = np.zeros(size + PAGE_BYTES // itemsize, dtype=dtype)
        offset = (-buffer.ctypes.data % PAGE_BYTES) // itemsize
        array = buffer[offset:offset + size].reshape(shape)
        if rng is not None:
            array[...] = rng.normal(size=shape)
        return array

    def _kernel(self):
        np = self._np
        out = self._cube_out
        np.multiply(self._cube, self._cube, out=out)
        out *= -0.5
        np.exp(out, out=out)
        total = float(out.sum())
        for _ in range(2):
            np.matmul(self._left, self._right, out=self._product)
            total += float(self._product.sum())
        for threshold in self._scores[:300]:
            np.greater(self._scores, threshold, out=self._above)
            total += float(self._above.mean())
        for i in range(12000):
            total += i * i
        for _ in range(2):
            total += float(self._stream.sum())
        return total

    def maybe_run(self, force=False, tracer=None):
        """Run the kernel when one is due, or now with force; in a "probe" span if traced."""
        start = time.perf_counter()
        if start < self._due and not force:
            return
        index = tracer.open("bench.probe", "probe") if tracer else None
        self._kernel()
        end = time.perf_counter()
        if tracer:
            tracer.close(index)
        self.midpoints.append((start + end) / 2.0)
        self.samples.append(end - start)
        self.spent += end - start
        self._due = end + PROBE_INTERVAL_S

    def scale(self):
        """Nominal over measured probe time, over the whole pass."""
        return PROBE_NOMINAL_S / statistics.median(self.samples)

    def scale_at(self, start, end):
        """Nominal over measured probe time, from the probes nearest [start, end]."""
        mid = bisect.bisect(self.midpoints, (start + end) / 2.0)
        low = max(0, min(mid - PROBE_WINDOW // 2, len(self.samples) - PROBE_WINDOW))
        return PROBE_NOMINAL_S / statistics.median(self.samples[low:low + PROBE_WINDOW])


class Recorder:
    """Timing samples, phase wall times and failed operations of one pass."""

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.samples = {}
        self.intervals = {}  # metric -> [(start, end)] of each sample
        self.phases = {}
        self.attempted = 0
        self.failures = {}
        self.last_op = None

    @contextmanager
    def phase(self, name):
        # A probe on each side of a phase, so a long call or a short burst of
        # calls has speed readings right next to it.
        self.probe.maybe_run(force=True, tracer=self.tracer)
        index = self.tracer.open(f"bench.{name}", "bench") if self.tracer else None
        start = time.perf_counter()
        probed = self.probe.spent
        try:
            yield
        finally:
            # Probe time is not the phase's.
            elapsed = time.perf_counter() - start - (self.probe.spent - probed)
            self.phases[name] = self.phases.get(name, 0.0) + elapsed
            if self.tracer:
                self.tracer.close(index)
            self.probe.maybe_run(force=True, tracer=self.tracer)

    def call(self, metric, fn, *args, trial=None, **kwargs):
        """Time one operation; a raised exception counts as a failed operation."""
        samples = self.samples.setdefault(metric, [])
        intervals = self.intervals.setdefault(metric, [])
        self.last_op = (metric, len(samples))
        self.attempted += 1
        if self.tracer:
            self.tracer.trial = trial
            index = self.tracer.open(f"bench.{metric}", "bench")
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the workload keeps running and reports the failure
            self.fail(self.last_op, f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            end = time.perf_counter()
            samples.append(end - start)
            intervals.append((start, end))
            if self.tracer:
                self.tracer.close(index)
                self.tracer.trial = None
            self.probe.maybe_run(tracer=self.tracer)

    def mark_ubm(self, ubm):
        """Tell the tracer which mixture is the UBM when the benchmark built it."""
        if self.tracer:
            self.tracer.add_ubm(ubm.gmm)

    def fail(self, key, reason):
        if key not in self.failures:
            print(f"perfbench: FAILED {key}: {reason}", file=sys.stderr)
            self.failures[key] = reason

    @property
    def failed(self):
        return len(self.failures)


def _environment(seed, seconds, trace):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "malloc_pinned": MALLOC_PINNED,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS; None if it is not found."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "libscipy_openblas*.so"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _scaled(durations, intervals, probe):
    """Durations scaled to the probe's nominal speed at the moment each ran."""
    if probe is None:
        return durations
    return [duration * probe.scale_at(start, end)
            for duration, (start, end) in zip(durations, intervals)]


def _operations_s(rec, probe=None):
    """Sum of every timed operation of a pass."""
    return sum(sum(_scaled(rec.samples[metric], rec.intervals[metric], probe))
               for metric in rec.samples)


def _end_to_end(rec, setup_times, outcome, probe=None):
    """Every end-to-end metric as (value, unit, samples).

    With a probe, each operation's time is scaled to the probe's nominal
    speed at the moment it ran. `pipeline_s` is the sum of all timed
    operations.
    """
    def timed(metric):
        return _scaled(rec.samples[metric], rec.intervals[metric], probe)

    identify = timed("identify_ms")
    setup = _scaled([end - start for start, end in setup_times], setup_times, probe)
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ingest_ms_p50": (1e3 * statistics.median(timed("ingest_ms")), "ms",
                          len(rec.samples["ingest_ms"])),
        "train_s": (statistics.median(timed("train_s")), "s", len(rec.samples["train_s"])),
        "enroll_ms_p50": (1e3 * statistics.median(timed("enroll_ms")), "ms",
                          len(rec.samples["enroll_ms"])),
        "identify_ms_p50": (1e3 * statistics.median(identify), "ms", len(identify)),
        "identify_ms_p90": (1e3 * statistics.quantiles(identify, n=10, method="inclusive")[8],
                            "ms", len(identify)),
        "evaluate_s": (statistics.median(timed("evaluate_s")), "s",
                       len(rec.samples["evaluate_s"])),
        "pipeline_s": (_operations_s(rec, probe), "s", 1),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "top1": (outcome["top1"], "fraction", len(identify)),
    }


def run_workload(name, seed, seconds, trace):
    from tracing import LAYER, Tracer, layer_metrics, phase_breakdown, span_cost
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    try:
        probe = SpeedProbe()
        setup_times = []  # (start, end) of each set-up, with a probe before and after
        for _ in range(SETUP_REPEATS):
            probe.maybe_run(force=True)
            start = time.perf_counter()
            inputs = workload.setup(seed, seconds, workdir)
            setup_times.append((start, time.perf_counter()))
        probe.maybe_run(force=True)
        rec = Recorder(probe)
        outcome = workload.check(inputs, workload.run(inputs, rec), rec)
        e2e = _end_to_end(rec, setup_times, outcome, probe)
        raw = _end_to_end(rec, setup_times, outcome)
        speed = {"probe_ms_p50": 1e3 * statistics.median(probe.samples),
                 "probes": len(probe.samples), "scale": probe.scale()}
        traced = None
        if trace:
            tracer = Tracer()
            traced_rec = Recorder(probe, tracer)
            tracer.install()
            try:
                state = workload.run(inputs, traced_rec)
            finally:
                tracer.uninstall()
            traced_outcome = workload.check(inputs, state, traced_rec)
            for key in ("top1", "eer", "artifacts"):
                if traced_outcome.get(key) != outcome.get(key):
                    traced_rec.fail(("trace", key), "traced pass changed the outputs")
            traced = (tracer, traced_rec, traced_outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [rec] + ([traced[1]] if traced else [])
    attempted = sum(p.attempted for p in passes)
    failures = [f"{key}: {reason}" for p in passes for key, reason in p.failures.items()]
    record = {
        "workload": name,
        "environment": _environment(seed, seconds, trace),
        "input_digest": inputs["digest"],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "raw_end_to_end": {k: v for k, (v, _, _) in raw.items()},
        "speed": speed,
        "aliases": {alias: e2e[metric][0] for alias, metric in workload.aliases.items()},
        "eer": outcome.get("eer"),
        "ingest_x_realtime": outcome.get("ingest_x_realtime"),
        "artifacts": outcome.get("artifacts"),
        "phases_s": rec.phases,
        "attempted": attempted,
        "failures": failures,
    }
    spec = _spec()
    metrics = {m["name"]: e2e[m["name"]][:2] for m in spec["end_to_end"]}
    if traced is not None:
        tracer, traced_rec, traced_outcome = traced
        per_layer = layer_metrics(tracer.spans)
        traced_s = _operations_s(traced_rec, probe)
        untraced_s = e2e["pipeline_s"][0]
        # Probes run on a clock, so their spans are left out of the counts.
        spans = sum(1 for span in tracer.spans if span[LAYER] != "probe")
        per_layer.update({
            "evaluation.eer": traced_outcome["eer"] if traced_outcome["eer"] is not None else 0.0,
            "trace.spans": spans,
            "trace.traced_s": traced_s,
            "trace.untraced_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.span_cost_s": spans * span_cost(),
        })
        record["per_layer"] = per_layer
        record["phase_breakdown"] = phase_breakdown(tracer.spans)
        metrics = {m["name"]: (per_layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
    _write_record(name, seed, trace, record, traced[0].spans if traced else None)
    _print_table(record, trace)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _write_record(name, seed, trace, record, spans):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "trial", "attrs"],
                       "spans": spans}, fh)


def _print_table(record, trace):
    env = record["environment"]
    print(f"== {record['workload']}  seed={env['seed']} seconds={env['seconds']} trace={trace}")
    print("   " + "  ".join(f"{k}={env[k]}" for k in
                            ("nproc", "python", "numpy", "scipy", "blas", "blas_threads",
                             "malloc_pinned")))
    speed = record["speed"]
    print(f"   times at the probe's nominal {1e3 * PROBE_NOMINAL_S:g} ms; measured probe median "
          f"{speed['probe_ms_p50']:.3f} ms over {speed['probes']} probes")
    print(f"   {'metric':<22} {'value':>12} {'unit':<9} {'samples':<9} {'raw':>12}")
    for key, entry in record["end_to_end"].items():
        print(f"   {key:<22} {entry['value']:>12.4f} {entry['unit']:<9} n={entry['samples']:<7} "
              f"{record['raw_end_to_end'][key]:>12.4f}")
    extras = dict(record["aliases"])
    if record["eer"] is not None:
        extras["eer"] = record["eer"]
    if record["ingest_x_realtime"] is not None:
        extras["ingest_x_realtime"] = record["ingest_x_realtime"]
    extras["error_rate"] = len(record["failures"]) / record["attempted"]
    for key, value in extras.items():
        print(f"   {key:<22} {value:>12.4f}")
    if "per_layer" in record:
        for phase, entry in record["phase_breakdown"].items():
            layers = ", ".join(f"{layer} {s:.3f}" for layer, s in
                               sorted(entry["self_s"].items(), key=lambda kv: -kv[1]))
            print(f"   phase {phase:<16} wall {entry['wall_s']:.3f} s = self: {layers}")
        for key, value in record["per_layer"].items():
            print(f"   {key:<40} {value:>14.6g}")


def _run_all(args):
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": value for name, r in results.items()
                    for key, value in r["metrics"].items()},
    }
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        sys.exit(f"perfbench: no BENCHMARK.json in {ROOT}")
    if args.workload == "all":
        _run_all(args)
        return
    _import_voxid()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
