import json
import os
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from voxid import cli, store
from voxid.cli import EXIT_DATA, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main, score_bar_svg
from voxid.features import FeatureMatrix

from test_store import read_artifact, v1_document, write_artifact


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path, make_clip_wav):
    """Feature files, a trained UBM and an enrolled registry."""
    feat_paths = []
    for i in range(3):
        wav = make_clip_wav(f"spk{i}.wav", seed=i, seconds=2.0, bias=0.02 * i)
        assert run("features", wav, "--out-dir", tmp_path) == EXIT_OK
        feat_paths.append(tmp_path / f"spk{i}.feat")
    ubm = tmp_path / "ubm.json"
    config = tmp_path / "settings.conf"
    config.write_text("num_components = 4\n")
    assert run("--config", config, "train-ubm", *feat_paths, "--output", ubm) == EXIT_OK
    registry = tmp_path / "registry.json"
    for i, feat in enumerate(feat_paths):
        code = run("enroll", "--speaker-id", f"spk{i}", "--cluster", f"c{i % 2}",
                   "--registry", registry, "--ubm", ubm, feat)
        assert code == EXIT_OK
    return tmp_path, feat_paths, ubm, registry


COLD_START = """
import sys
def heavy():
    return sorted(m for m in sys.modules
                  if m.startswith(("scipy.sparse", "scipy.linalg", "concurrent.futures")))
from voxid.cli import main
print(heavy())
wav, registry, ubm, config = sys.argv[1:]
feat = wav[:-len(".wav")] + ".feat"
codes = [main(["features", wav]),
         main(["--config", config, "train-ubm", feat, "--output", ubm + ".new"]),
         main(["enroll", "--speaker-id", "new", "--registry", registry, "--ubm", ubm, feat]),
         main(["identify", feat, "--registry", registry, "--ubm", ubm])]
print(codes, heavy())
"""


def test_cold_start_loads_neither_sparse_nor_linalg(workspace, make_clip_wav):
    # features, train-ubm, LLR enroll and identify use neither package, so a one-shot
    # process does not pay to import them; nor does a pass this small start gmm's worker
    work, _, ubm, registry = workspace
    wav = make_clip_wav("new.wav", seed=7, seconds=2.0)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "error", "-c", COLD_START, str(wav),
                          str(registry), str(ubm), str(work / "settings.conf")], env=env,
                         capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    assert lines[0] == "[]" and lines[-1] == "[0, 0, 0, 0] []"


class TestFeatures:
    def test_valid_wav(self, tmp_path, make_clip_wav):
        wav = make_clip_wav("a.wav")
        assert run("features", wav, "--out-dir", tmp_path) == EXIT_OK
        assert (tmp_path / "a.feat").exists()

    def test_unsupported_rate(self, tmp_path):
        pcm = struct.pack("<4h", 0, 1, 2, 3)
        fmt = struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", len(pcm)) + pcm
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        assert run("features", bad, "--out-dir", tmp_path) == EXIT_DATA

    def test_empty_input_list(self):
        assert run("features") == EXIT_USAGE

    def test_inputs_that_would_write_one_file(self, tmp_path, make_clip_wav, capsys):
        # a/x.wav and b/x.wav both derive out/x.feat: refused before either is written
        wavs = []
        for sub, seed in (("a", 1), ("b", 2)):
            (tmp_path / sub).mkdir()
            wavs.append(make_clip_wav(f"{sub}/x.wav", seed=seed))
        out = tmp_path / "out"
        out.mkdir()
        assert run("features", *wavs, "--out-dir", out) == EXIT_USAGE
        assert "would both write" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert run("features", *wavs) == EXIT_OK  # each beside its own WAV
        assert (tmp_path / "a" / "x.feat").exists() and (tmp_path / "b" / "x.feat").exists()

    @pytest.mark.parametrize("lines, needle", [
        ("frame_shift_ms = 0\n", "frame_shift_ms"),
        ("frame_shift_ms = 0.01\n", "16000 Hz"),
        ("frame_length_ms = -5\nframe_shift_ms = -10\n", "frame_shift_ms"),
        ("dft_size = 256\n", "dft_size = 256 is shorter than the 400-sample frame at 16000 Hz"),
        ("frame_length_ms = 0.06\nframe_shift_ms = 0.06\n",
         "frame_length_ms = 0.06 is under two samples at 16000 Hz"),
    ], ids=["zero-shift", "sub-sample-shift", "negative-length", "dft-shorter-than-frame",
            "one-sample-frame"])
    def test_bad_frame_timing(self, tmp_path, make_clip_wav, capsys, lines, needle):
        wav = make_clip_wav("a.wav", rate=16000)
        config = tmp_path / "c.conf"
        config.write_text(lines)
        assert run("--config", config, "features", wav, "--out-dir", tmp_path) == EXIT_USAGE
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "a.feat").exists()

    @pytest.mark.parametrize("order", [("a", "b", "c"), ("c", "a", "b")])
    def test_mixed_rate_batch_tries_every_input(self, tmp_path, make_clip_wav, capsys, order):
        # 256 points frame 8 kHz audio (200-sample frames) but not 16 kHz (400 samples)
        rates = {"a": 8000, "b": 16000, "c": 8000}
        wavs = {name: make_clip_wav(f"{name}.wav", seed=n, rate=rate)
                for n, (name, rate) in enumerate(rates.items())}
        config = tmp_path / "c.conf"
        config.write_text("dft_size = 256\n")
        out = tmp_path / "out"
        out.mkdir()
        assert run("--config", config, "features", *(wavs[name] for name in order),
                   "--out-dir", out) == EXIT_USAGE
        assert sorted(p.name for p in out.iterdir()) == ["a.feat", "c.feat"]
        err = capsys.readouterr().err
        assert f"{wavs['b']}: ValueError: dft_size = 256 is shorter than the 400-sample" in err

    def test_too_short_wav_is_a_domain_error(self, tmp_path, make_clip_wav, capsys):
        # 50 samples at 8 kHz hold no 200-sample frame: valid data, no features
        short = make_clip_wav("short.wav", seconds=50 / 8000)
        assert run("features", short, "--out-dir", tmp_path) == EXIT_DOMAIN
        assert f"{short}: SignalTooShort" in capsys.readouterr().err
        assert not (tmp_path / "short.feat").exists()
        broken = tmp_path / "broken.wav"
        broken.write_bytes(b"not a wav")  # a data error outranks it
        assert run("features", short, broken, "--out-dir", tmp_path) == EXIT_DATA

    def test_failed_write_is_reported_per_input(self, tmp_path, make_clip_wav, capsys):
        a, b = make_clip_wav("a.wav"), make_clip_wav("b.wav", seed=1)
        (tmp_path / "a.feat").mkdir()  # a directory where a.feat would be written
        assert run("features", a, b, "--out-dir", tmp_path) == EXIT_DATA
        assert f"{a}: IoFailure" in capsys.readouterr().err
        assert (tmp_path / "b.feat").is_file()  # and no temporary file is left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.feat", "a.wav", "b.feat", "b.wav"]

    def test_usage_error_outranks_a_data_error(self, tmp_path, make_clip_wav, capsys):
        wav = make_clip_wav("a.wav", rate=16000)
        broken = tmp_path / "broken.wav"
        broken.write_bytes(b"not a wav")
        config = tmp_path / "c.conf"
        config.write_text("dft_size = 256\n")
        assert run("features", broken, "--out-dir", tmp_path) == EXIT_DATA
        assert run("--config", config, "features", broken, wav,
                   "--out-dir", tmp_path) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"{broken}: MalformedContainer" in err and f"{wav}: ValueError" in err


class TestTrainUbm:
    def test_deterministic_bytes(self, workspace, tmp_path):
        _, feats, ubm, _ = workspace
        again = tmp_path / "ubm2.json"
        config = tmp_path / "settings.conf"
        assert run("--config", config, "train-ubm", *feats, "--output", again) == EXIT_OK
        assert ubm.read_bytes() == again.read_bytes()

    def test_too_few_frames(self, workspace, tmp_path):
        _, feats, _, _ = workspace
        config = tmp_path / "big.conf"
        config.write_text("num_components = 100000\n")
        out = tmp_path / "nope.json"
        assert run("--config", config, "train-ubm", feats[0], "--output", out) == EXIT_DOMAIN

    def test_zero_dimension_features(self, tmp_path, capsys):
        feat = tmp_path / "empty.feat"
        feat.write_bytes(b"VOXF1" + struct.pack("<II", 0, 50))
        out = tmp_path / "ubm0.json"
        assert run("train-ubm", feat, "--output", out) == EXIT_DATA
        assert "CorruptArtifact" in capsys.readouterr().err
        assert not out.exists()

    def test_monotone_training_log(self, workspace, tmp_path, capsys):
        _, feats, _, _ = workspace
        config = tmp_path / "settings.conf"
        out = tmp_path / "ubm3.json"
        run("--config", config, "train-ubm", *feats, "--output", out)
        lls = [float(line.rsplit(" ", 1)[1])
               for line in capsys.readouterr().out.strip().split("\n")
               if line.startswith("iteration")]
        assert len(lls) >= 2
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-8 * abs(prev)


class TestEnroll:
    def test_duplicate_id(self, workspace):
        _, feats, ubm, registry = workspace
        code = run("enroll", "--speaker-id", "spk0", "--registry", registry,
                   "--ubm", ubm, feats[0])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("relevance", ["nan", "inf", "-1"])
    def test_non_finite_relevance_enrolls_nobody(self, workspace, capsys, relevance):
        """A relevance map_adapt refuses is a usage error of its config line, raised
        before the UBM or any features are read."""
        tmp, feats, ubm, registry = workspace
        before = registry.read_bytes()
        config = tmp / f"{relevance}.conf"
        config.write_text(f"relevance = {relevance}\n")
        for target in (registry, tmp / "new-registry.json"):
            code = run("--config", config, "enroll", "--speaker-id", "spk9", "--registry",
                       target, "--ubm", ubm, feats[0])
            assert code == EXIT_USAGE
            assert f"{config}:1:" in capsys.readouterr().err
        assert registry.read_bytes() == before
        assert not (tmp / "new-registry.json").exists()

    def test_listed_after_enroll(self, workspace, capsys):
        _, _, _, registry = workspace
        assert run("inspect", registry) == EXIT_OK
        out = capsys.readouterr().out
        assert "spk0" in out and "c0" in out


class TestTvAndIvector:
    def test_pipeline_and_determinism(self, workspace, tmp_path):
        _, feats, ubm, _ = workspace
        tv = tmp_path / "tv.json"
        assert run("train-tv", *feats, "--ubm", ubm, "--rank", 2,
                   "--output", tv) == EXIT_OK
        iv1 = tmp_path / "iv1.json"
        iv2 = tmp_path / "iv2.json"
        assert run("ivector", feats[0], "--ubm", ubm, "--tv", tv,
                   "--output", iv1) == EXIT_OK
        assert run("ivector", feats[0], "--ubm", ubm, "--tv", tv,
                   "--output", iv2) == EXIT_OK
        assert iv1.read_bytes() == iv2.read_bytes()

    def test_rank_too_large(self, workspace, tmp_path):
        _, feats, ubm, _ = workspace
        tv = tmp_path / "tv.json"
        assert run("train-tv", *feats, "--ubm", ubm, "--rank", 1000,
                   "--output", tv) == EXIT_DOMAIN

    @pytest.mark.parametrize("flags", [("--rank", 0), ("--rank", -1), ("--iterations", -2)],
                             ids=["rank-0", "rank-negative", "iterations-negative"])
    def test_bad_rank_or_iterations(self, workspace, tmp_path, capsys, flags):
        _, feats, ubm, _ = workspace
        tv = tmp_path / "tv.json"
        assert run("train-tv", *feats, "--ubm", ubm, *flags, "--output", tv) == EXIT_USAGE
        assert "VoxidUsageError" in capsys.readouterr().err
        assert not tv.exists()

    def test_zero_t_gives_zero_ivector(self, workspace, tmp_path):
        _, feats, ubm, _ = workspace
        tv = tmp_path / "tv.json"
        run("train-tv", feats[0], "--ubm", ubm, "--rank", 2, "--iterations", 0,
            "--output", tv)
        document = v1_document("tv_model", store.load(tv, "tv_model"))  # decimal strings
        document["payload"]["t_matrix"] = [
            [repr(0.0)] * 2 for _ in document["payload"]["t_matrix"]
        ]
        tv.write_text(json.dumps(document, sort_keys=True))
        iv = tmp_path / "iv.json"
        assert run("ivector", feats[0], "--ubm", ubm, "--tv", tv,
                   "--output", iv) == EXIT_OK
        assert np.array_equal(store.load(iv, "ivector").w, np.zeros(2))


class TestIdentify:
    def test_own_enrollment_ranks_first(self, workspace, capsys):
        _, feats, ubm, registry = workspace
        code = run("identify", feats[1], "--registry", registry, "--ubm", ubm,
                   "--mode", "llr", "--threshold", "1.0")
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1].split()[0] == "spk1"

    def test_cosine_without_ivectors(self, workspace, tmp_path):
        _, feats, ubm, registry = workspace
        tv = tmp_path / "tv.json"
        run("train-tv", *feats, "--ubm", ubm, "--rank", 2, "--output", tv)
        iv = tmp_path / "iv.json"
        run("ivector", feats[0], "--ubm", ubm, "--tv", tv, "--output", iv)
        code = run("identify", iv, "--registry", registry, "--mode", "cosine",
                   "--threshold", "0.5")
        assert code == EXIT_DOMAIN

    def test_svg_output(self, workspace, tmp_path):
        _, feats, ubm, registry = workspace
        svg = tmp_path / "scores.svg"
        code = run("identify", feats[0], "--registry", registry, "--ubm", ubm,
                   "--svg", svg)
        assert code == EXIT_OK
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) == 3 + 1  # one per speaker plus background

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold(self, workspace, capsys, threshold):
        _, feats, ubm, registry = workspace
        code = run("identify", feats[0], "--registry", registry, "--ubm", ubm,
                   f"--threshold={threshold}")
        assert code == EXIT_USAGE
        assert "threshold must be finite" in capsys.readouterr().err

    def test_outputs_deterministic(self, workspace, tmp_path):
        _, feats, ubm, registry = workspace
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("identify", feats[0], "--registry", registry, "--ubm", ubm, "--csv", a)
        run("identify", feats[0], "--registry", registry, "--ubm", ubm, "--csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_llr_and_llr_normalized_write_the_same_reports(self, workspace, tmp_path):
        _, feats, ubm, registry = workspace
        written = {}
        for mode in ("llr", "llr-normalized"):
            report, table = tmp_path / f"{mode}.json", tmp_path / f"{mode}.csv"
            assert run("identify", feats[0], "--registry", registry, "--ubm", ubm,
                       "--mode", mode, "--json", report, "--csv", table) == EXIT_OK
            written[mode] = report.read_bytes(), table.read_bytes()
        assert written["llr"] == written["llr-normalized"]
        assert store.load(tmp_path / "llr.json", "report").mode == "llr-normalized"

    @pytest.mark.parametrize("mode", ["llr", "llr-normalized"])
    def test_llr_without_ubm_is_a_usage_error(self, workspace, capsys, mode):
        _, feats, _, registry = workspace
        assert run("identify", feats[0], "--registry", registry, "--mode", mode) == EXIT_USAGE
        assert "VoxidUsageError: --ubm is required" in capsys.readouterr().err

    def test_cosine_of_a_feature_file_is_the_wrong_kind(self, workspace, capsys):
        _, feats, ubm, registry = workspace
        code = run("identify", feats[0], "--registry", registry, "--ubm", ubm,
                   "--mode", "cosine")
        assert code == EXIT_DATA
        assert "WrongKind" in capsys.readouterr().err

    def test_cosine_threshold_outside_its_range(self, workspace, tmp_path, capsys):
        _, feats, ubm, registry = workspace
        tv, iv = tmp_path / "tv.json", tmp_path / "iv.json"
        assert run("train-tv", *feats, "--ubm", ubm, "--rank", 2, "--output", tv) == EXIT_OK
        assert run("ivector", feats[0], "--ubm", ubm, "--tv", tv, "--output", iv) == EXIT_OK
        code = run("identify", iv, "--registry", registry, "--mode", "cosine",
                   "--threshold", "1.5")
        assert code == EXIT_USAGE
        assert "cosine threshold must lie in [-1, 1]" in capsys.readouterr().err

    def test_unknown_mode_is_a_usage_error(self, workspace, capsys):
        _, feats, ubm, registry = workspace
        code = run("identify", feats[0], "--registry", registry, "--ubm", ubm,
                   "--mode", "bogus")
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(mode in err for mode in ("bogus", "llr", "llr-normalized", "cosine"))


class TestEvaluate:
    CONFIG = (
        "mode = llr\n"
        "num_true_speakers = 3\n"
        "num_impostors = 1\n"
        "ubm_components = 4\n"
        "ubm_frames = 800\n"
        "enroll_frames = 300\n"
        "test_frames = 120\n"
        "thresholds = 1.0\n"
    )

    def test_run_and_determinism(self, tmp_path):
        config = tmp_path / "exp.conf"
        config.write_text(self.CONFIG)
        prefix_a = tmp_path / "ra"
        prefix_b = tmp_path / "rb"
        assert run("evaluate", config, "--output-prefix", prefix_a) == EXIT_OK
        assert run("evaluate", config, "--output-prefix", prefix_b) == EXIT_OK
        assert (tmp_path / "ra-t1.json").read_bytes() == (tmp_path / "rb-t1.json").read_bytes()
        assert (tmp_path / "ra-t1.csv").read_bytes() == (tmp_path / "rb-t1.csv").read_bytes()

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "exp.conf"
        config.write_text("mode = llr\nbogus_key = 1\n")
        assert run("evaluate", config, "--output-prefix", tmp_path / "r") == EXIT_USAGE

    def test_close_thresholds_write_separate_reports(self, tmp_path, capsys):
        config = tmp_path / "exp.conf"
        config.write_text(self.CONFIG.replace("1.0", "0.1234567, 0.1234568"))
        assert run("evaluate", config, "--output-prefix", tmp_path / "r") == EXIT_OK
        for suffix in ("json", "csv"):
            assert sorted(p.name for p in tmp_path.glob(f"r-t*.{suffix}")) == [
                f"r-t0_1234567.{suffix}", f"r-t0_1234568.{suffix}"]
        out = capsys.readouterr().out
        assert "threshold 0.1234567:" in out and "threshold 0.1234568:" in out

    def test_repeated_threshold_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "exp.conf"
        config.write_text(self.CONFIG.replace("1.0", "1, 1.0"))
        assert run("evaluate", config, "--output-prefix", tmp_path / "r") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "InvalidExperimentConfig" in err and "thresholds" in err
        assert not list(tmp_path.glob("r-t*"))

    def test_missing_output_directory_fails_before_the_run(self, tmp_path, capsys,
                                                           monkeypatch):
        def not_run(config):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", not_run)
        config = tmp_path / "exp.conf"
        config.write_text(self.CONFIG)
        missing = tmp_path / "missing"
        assert run("evaluate", config, "--output-prefix", missing / "r") == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("IoFailure: ") and f"no directory {missing}" in err
        assert ".voxid-" not in err


@pytest.mark.parametrize("line", ["relevance 16", "bogus = 1", "relevance = lots",
                                  "apply_cmvn = ture"],
                         ids=["no-equals", "unknown-key", "bad-number", "bad-flag"])
@pytest.mark.parametrize("command", ["--config", "evaluate"])
def test_bad_config_line(tmp_path, capsys, command, line):
    config = tmp_path / "bad.conf"
    config.write_text(f"# comment\n\n{line}\n")
    if command == "--config":
        argv = ("--config", config, "train-ubm", tmp_path / "none.feat", "--output",
                tmp_path / "ubm.json")
    else:
        argv = ("evaluate", config, "--output-prefix", tmp_path / "r")
    assert run(*argv) == EXIT_USAGE
    assert f"{config}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["--config", "evaluate"])
def test_repeated_config_key(tmp_path, capsys, make_clip_wav, command):
    # either value alone is valid; a file that gives both is refused, not read as the last
    config = tmp_path / "twice.conf"
    if command == "--config":
        assert run("features", make_clip_wav("a.wav", seconds=2.0)) == EXIT_OK
        config.write_text("num_components = 4\n\nnum_components = 2\n")
        argv = ("--config", config, "train-ubm", tmp_path / "a.feat", "--output",
                tmp_path / "ubm.json")
        where, first = f"{config}:3:", "repeats line 1"
    else:
        config.write_text(TestEvaluate.CONFIG + "# again\nubm_components = 2\n")
        argv = ("evaluate", config, "--output-prefix", tmp_path / "r")
        where, first = f"{config}:10:", "repeats line 4"
    assert run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert where in err and first in err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("command", ["--config", "evaluate"])
def test_config_not_utf8(tmp_path, capsys, make_clip_wav, command):
    # a byte that is not UTF-8 on line 3 is a usage error naming the file and that line
    config = tmp_path / "bad.conf"
    if command == "--config":
        assert run("features", make_clip_wav("a.wav", seconds=2.0)) == EXIT_OK
        config.write_bytes(b"# comment\r\n\r\nnum_components = \xff4\n")
        argv = ("--config", config, "train-ubm", tmp_path / "a.feat", "--output",
                tmp_path / "ubm.json")
    else:
        config.write_bytes(b"mode = llr\n\nseed = 1 # \xe9\n" + TestEvaluate.CONFIG.encode())
        argv = ("evaluate", config, "--output-prefix", tmp_path / "r")
    assert run(*argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("VoxidUsageError: ") and f"{config}:3: not UTF-8" in err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("line", ["tv_rank = 4", "tv_iterations = 2", "threshold = 0.5",
                                  "mode = cosine", "rng_seed = 1"])
def test_config_does_not_repeat_command_flags(tmp_path, capsys, line):
    # --rank, --iterations, --threshold, --mode and --seed are the only source of these settings
    config = tmp_path / "c.conf"
    config.write_text(f"{line}\n")
    assert run("--config", config, "identify", tmp_path / "t.feat",
               "--registry", tmp_path / "r.json") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown key" in err and f"{config}:1:" in err


# a valid value for every key the README's --config table lists
CONFIG_VALUES = {
    "pre_emphasis_alpha": "0.95", "frame_length_ms": "20", "frame_shift_ms": "10",
    "dft_size": "256", "num_mel_filters": "24", "num_cepstra": "12", "apply_cmvn": "off",
    "num_components": "4", "max_iterations": "5", "convergence_tol": "1e-4",
    "variance_floor": "1e-3", "relevance": "8",
}


def readme_config_keys():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| Key | Type | Used by |\n| --- | --- | --- |\n", 1)[1].split("\n\n")[0]
    return [key for row in table.splitlines() for key in row.split("|")[1].split("`")[1::2]]


def test_every_documented_config_key_parses(tmp_path, capsys):
    keys = readme_config_keys()
    assert len(keys) == len(set(keys)) and set(keys) == set(cli._CONFIG_KEYS)
    feat = tmp_path / "a.feat"
    store.save(FeatureMatrix(np.zeros((3, 2))), "features", feat)
    config = tmp_path / "c.conf"
    config.write_text("".join(f"{key} = {CONFIG_VALUES[key]}\n" for key in keys))
    assert run("--config", config, "inspect", feat) == EXIT_OK
    config.write_text("dft_size = 1.5\n")
    assert run("--config", config, "inspect", feat) == EXIT_USAGE
    assert f"{config}:1:" in capsys.readouterr().err


@pytest.mark.parametrize("word, normalised", [("on", True), ("Yes", True), ("1", True),
                                              ("OFF", False), ("no", False), ("0", False)])
def test_apply_cmvn_words(tmp_path, make_clip_wav, word, normalised):
    wav = make_clip_wav("a.wav", seconds=1.0)
    config = tmp_path / "c.conf"
    config.write_text(f"apply_cmvn = {word}\n")
    assert run("--config", config, "features", wav, "--out-dir", tmp_path) == EXIT_OK
    means = store.load(tmp_path / "a.feat", "features").frames.mean(axis=0)
    assert bool(np.all(np.abs(means) < 1e-6)) == normalised


@pytest.mark.parametrize("line, name", [
    ("num_impostors = -1", "num_impostors"),
    ("ubm_frames = 0", "ubm_frames"),
    ("thresholds = nan", "thresholds"),
    ("thresholds = 0.5, inf", "thresholds"),
    ("feature_dim = 0", "feature_dim"),
    ("ubm_components = 0", "ubm_components"),
    ("tv_rank = 0", "tv_rank"),
    ("tv_iterations = -2", "tv_iterations"),
    ("cosine_target_impostors = -1", "cosine_target_impostors"),
    ("speaker_spread = -1", "speaker_spread"),
    ("speaker_spread = nan", "speaker_spread"),
    ("relevance = -1", "relevance"),
    ("relevance = nan", "relevance"),
    ("relevance = inf", "relevance"),
    ("seed = -1", "seed"),
    ("mode = cosine\ntv_chunk_frames = 50\nthresholds = 1.5", "thresholds"),
    ("mode = cosine", "tv_chunk_frames"),
    ("mode = cosine\ntv_chunk_frames = 50\ncosine_target_true = 0", "cosine_target_true"),
    ("num_true_speakers = 1\nnum_impostors = 0", "num_true_speakers"),
    ("ubm_frames = 10", "ubm_frames"),  # fewer frames than the 16 components
    ("mode = cosine\ntv_chunk_frames = 50\ntv_rank = 128", "tv_rank"),  # 16 x 8 supervector
])
def test_evaluate_rejects_bad_counts_and_sizes(tmp_path, capsys, line, name):
    config = tmp_path / "bad.conf"
    sizes = {"ubm_frames": 200, "enroll_frames": 100, "test_frames": 50}
    # a key may appear once, so `line` takes the place of a size it sets
    keys = {entry.partition("=")[0].strip() for entry in line.splitlines()}
    small = "".join(f"{k} = {v}\n" for k, v in sizes.items() if k not in keys)
    config.write_text(f"{small}{line}\n")
    assert run("evaluate", config, "--output-prefix", tmp_path / "r") == EXIT_USAGE
    err = capsys.readouterr().err
    assert "InvalidExperimentConfig" in err and name in err


@pytest.mark.parametrize("line", ["variance_floor = nan", "convergence_tol = nan",
                                  "variance_floor = inf", "convergence_tol = inf",
                                  "max_iterations = -3"])
def test_train_ubm_rejects_bad_training_config(tmp_path, capsys, line):
    feat = tmp_path / "a.feat"
    store.save(FeatureMatrix(np.random.default_rng(0).normal(size=(400, 5))), "features", feat)
    config = tmp_path / "c.conf"
    config.write_text(f"num_components = 4\n{line}\n")
    ubm = tmp_path / "ubm.json"
    assert run("--config", config, "train-ubm", feat, "--output", ubm) == EXIT_USAGE
    assert not ubm.exists()
    assert line.split()[0] in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    # refused as it is parsed, before the command reads its (here missing) inputs
    argv = ("--seed", "-1", "train-ubm", tmp_path / "none.feat", "--output", tmp_path / "u.json")
    assert run(*argv) == EXIT_USAGE
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


def test_usage_error_on_unknown_command():
    assert run("frobnicate") == EXIT_USAGE


def test_consecutive_calls_share_no_state(workspace, tmp_path, make_clip_wav, capsys):
    """One parser serves every `main` call in a process; no call's flags,
    seed or usage error may reach the next."""
    _, feats, _, _ = workspace
    config = tmp_path / "settings.conf"  # the workspace's num_components = 4
    wav = make_clip_wav("v.wav")
    cli.build_parser.cache_clear()

    def train_ubm(name, *flags):
        assert run("--config", config, *flags, "train-ubm", *feats,
                   "--output", tmp_path / name) == EXIT_OK
        return (tmp_path / name).read_bytes()

    seeded = train_ubm("seeded.json", "--seed", 5)
    after = train_ubm("after.json")
    capsys.readouterr()
    assert run("--verbose", "features", wav) == EXIT_OK
    assert "v.feat" in capsys.readouterr().out
    assert run("features", wav) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert run("train-ubm", "--outptu", "x") == EXIT_USAGE
    assert run("inspect", tmp_path / "after.json") == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == ["kind: ubm", "format_version: 3"]
    calls = cli.build_parser.cache_info()
    assert (calls.misses, calls.hits) == (1, 5)

    cli.build_parser.cache_clear()  # a fresh parser, as a new process builds
    assert after == train_ubm("fresh.json")
    assert seeded != after


def test_inspect_unknown_file(tmp_path):
    junk = tmp_path / "junk"
    junk.write_bytes(b"not an artifact")
    assert run("inspect", junk) == EXIT_DATA


def test_inspect_names_missing_registry_field(workspace, capsys):
    _, _, _, registry = workspace
    document, body = read_artifact(registry)
    del document["payload"]["entries"][1]["cluster_id"]
    write_artifact(registry, document, body)
    assert run("inspect", registry) == EXIT_DATA
    err = capsys.readouterr().err
    assert "CorruptArtifact" in err and "cluster_id" in err


def test_mixed_feature_dimensions_are_a_domain_error_in_every_command(tmp_path, capsys):
    rng = np.random.default_rng(0)
    wide, narrow = tmp_path / "a.feat", tmp_path / "b.feat"
    store.save(FeatureMatrix(rng.normal(size=(200, 13))), "features", wide)
    store.save(FeatureMatrix(rng.normal(size=(200, 12))), "features", narrow)
    config = tmp_path / "c.conf"
    config.write_text("num_components = 2\n")
    ubm = tmp_path / "ubm.json"
    assert run("--config", config, "train-ubm", wide, narrow, "--output", ubm) == EXIT_DOMAIN
    assert not ubm.exists()
    assert "DimensionMismatch" in capsys.readouterr().err
    assert run("--config", config, "train-ubm", wide, "--output", ubm) == EXIT_OK
    assert run("enroll", "--speaker-id", "s", "--registry", tmp_path / "r.json", "--ubm", ubm,
               wide, narrow) == EXIT_DOMAIN
    assert run("train-tv", "--ubm", ubm, wide, narrow, "--rank", "2",
               "--output", tmp_path / "tv.json") == EXIT_DOMAIN
    assert capsys.readouterr().err.count("DimensionMismatch") == 2


def test_enroll_keeps_an_owner_only_registry_private(workspace):
    tmp_path, feat_paths, ubm, registry = workspace
    os.chmod(registry, 0o600)
    old = os.umask(0o022)
    try:
        code = run("enroll", "--speaker-id", "extra", "--registry", registry, "--ubm", ubm,
                   feat_paths[0])
    finally:
        os.umask(old)
    assert code == EXIT_OK
    assert os.stat(registry).st_mode & 0o777 == 0o600


def test_train_ubm_on_non_finite_features(tmp_path):
    feat = tmp_path / "nan.feat"
    feat.write_bytes(b"VOXF1" + struct.pack("<II4f", 2, 2, 1.0, float("nan"), 2.0, 3.0))
    assert run("train-ubm", feat, "--output", tmp_path / "ubm.json") == EXIT_DATA


def test_svg_bars_stay_on_canvas_when_all_scores_negative():
    root = ET.fromstring(score_bar_svg(["a", "b"], [-3.0, -1.0], -2.0))
    width, height = float(root.get("width")), float(root.get("height"))
    for rect in (el for el in root.iter() if el.tag.endswith("rect")):
        x, y = float(rect.get("x")), float(rect.get("y"))
        assert 0.0 <= x and x + float(rect.get("width")) <= width
        assert 0.0 <= y and y + float(rect.get("height")) <= height


def test_svg_mixed_sign_bytes():
    svg = score_bar_svg(["spk0", "spk1", "spk2"], [2.5, -1.0, 0.75], 0.5)
    assert svg == (
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="360">\n'
        '<rect x="0" y="0" width="640" height="360" fill="white"/>\n'
        '<rect x="58.67" y="40.00" width="149.33" height="200.00" fill="steelblue"/>\n'
        '<text x="133.33" y="336" font-size="11" text-anchor="middle">spk0</text>\n'
        '<text x="133.33" y="36.00" font-size="10" text-anchor="middle">2.5</text>\n'
        '<rect x="245.33" y="240.00" width="149.33" height="80.00" fill="steelblue"/>\n'
        '<text x="320.00" y="336" font-size="11" text-anchor="middle">spk1</text>\n'
        '<text x="320.00" y="236.00" font-size="10" text-anchor="middle">-1</text>\n'
        '<rect x="432.00" y="180.00" width="149.33" height="60.00" fill="steelblue"/>\n'
        '<text x="506.67" y="336" font-size="11" text-anchor="middle">spk2</text>\n'
        '<text x="506.67" y="176.00" font-size="10" text-anchor="middle">0.75</text>\n'
        '<line x1="40" y1="200.00" x2="600" y2="200.00" stroke="crimson" '
        'stroke-dasharray="6,3"/>\n'
        '<text x="600" y="195.00" font-size="11" text-anchor="end" '
        'fill="crimson">threshold 0.5</text>\n'
        "</svg>\n"
    )


def test_svg_escapes_speaker_ids(workspace, tmp_path):
    _, feats, ubm, _ = workspace
    registry = tmp_path / "markup.json"
    for sid, feat in zip(["a<b", "c&d", 'e"f>'], feats):
        assert run("enroll", "--speaker-id", sid, "--registry", registry, "--ubm", ubm,
                   feat) == EXIT_OK
    svg = tmp_path / "scores.svg"
    assert run("identify", feats[0], "--registry", registry, "--ubm", ubm,
               "--svg", svg) == EXIT_OK
    root = ET.fromstring(svg.read_text())
    labels = {el.text for el in root.iter() if el.tag.endswith("text")}
    assert {"a<b", "c&d", 'e"f>'} <= labels

