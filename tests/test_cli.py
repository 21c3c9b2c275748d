"""Experiment harness: configs, fingerprints, and the five subcommands."""

import hashlib
import itertools
import json
import os
import platform
import stat
import struct
import subprocess
import sys

import numpy as np
import pytest
from numpy.lib.introspect import opt_func_info

import lwpll.cli
import lwpll.data
from lwpll import (Layer, NetworkParams, init_network, load_partial_csv, make_rng, network_widths,
                   save_checkpoint)
from lwpll.cli import ConfigError, ExperimentConfig, main, parse_config_text

BASE_CONFIG = """
# toy experiment
gaussian.classes = 3
gaussian.dim = 2
gaussian.n = 200
gaussian.test_n = 80
gaussian.separation = 4.0
generation.q = 0.3
trainer.epochs = 2
trainer.learning_rate = 0.05
seeds = 0,1
"""


def write_config(tmp_path, text=BASE_CONFIG, **extra):
    lines = [text]
    for key, value in extra.items():
        if "." not in key:
            key = key.replace("_", ".", 1)
        lines.append(f"{key} = {value}")
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# config parsing


def test_parse_config_text():
    parsed = parse_config_text("a.b = 1  # trailing comment\n\n# full comment\nc = hi\n",
                               "exp.cfg")
    assert parsed == {"a.b": "1", "c": "hi"}


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n", "exp.cfg")
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n", "exp.cfg")


def test_config_file_errors_name_path_and_line(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    cases = (
        (b"trainer.epochs = 1\ngaussian.n = \xff200\n", ":2: byte 0xff is not UTF-8"),
        (b"# a bad byte in a comment\xfe\n", ":1: byte 0xfe is not UTF-8"),
        (b"trainer.epochs = 1\ngarbage\n", ":2: expected 'key = value', got 'garbage'"),
        (b"# c\ntrainer.epochs = 1\ntrainer.epochs = 2\n", ":3: duplicate key 'trainer.epochs'"),
    )
    for blob, message in cases:
        path.write_bytes(blob)
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_file(str(path))
        assert str(info.value) == f"{path}{message}"
        assert main(["train", "--config", str(path), "--quiet"]) == 2
        assert capsys.readouterr() == ("", f"error: {path}{message}\n")


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "trainer.warmup = 5\n")
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_file(path)
    assert "trainer.warmup" in str(info.value)


def test_config_type_and_choice_validation(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(write_config(tmp_path, BASE_CONFIG, **{"trainer.epochs": "soon"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(write_config(tmp_path, BASE_CONFIG, **{"loss.psi": "hinge"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(write_config(tmp_path, BASE_CONFIG, **{"model.arch": "rnn"}))


def test_config_seed_list_and_override(tmp_path):
    cfg = ExperimentConfig.from_file(write_config(tmp_path))
    assert cfg.values["seeds"] == (0, 1)
    solo = cfg.override(seeds=(7,))
    assert solo.values["seeds"] == (7,)
    assert cfg.values["seeds"] == (0, 1)


def test_fingerprint_ignores_output_dir_only(tmp_path):
    a = ExperimentConfig.from_file(write_config(tmp_path, BASE_CONFIG, **{"output.dir": "out_a"}))
    b = ExperimentConfig.from_file(write_config(tmp_path, BASE_CONFIG, **{"output.dir": "out_b"}))
    assert a.fingerprint() == b.fingerprint()
    c = ExperimentConfig.from_file(write_config(tmp_path, BASE_CONFIG, **{"loss.beta": "2.0"}))
    assert c.fingerprint() != a.fingerprint()
    d = ExperimentConfig.from_file(write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0,2")))
    assert d.fingerprint() != a.fingerprint()
    assert len(a.fingerprint()) == 12


def test_config_with_a_utf8_bom_reads_as_without_it(tmp_path):
    path = tmp_path / "exp.cfg"
    text = ("loss.beta = 0.5\n" + BASE_CONFIG).encode()
    path.write_bytes(text)
    plain = ExperimentConfig.from_file(str(path))
    path.write_bytes(b"\xef\xbb\xbf" + text)
    marked = ExperimentConfig.from_file(str(path))
    assert marked.values == plain.values
    assert marked.fingerprint() == plain.fingerprint()


def test_empty_output_dir_is_rejected_by_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": ""})
    assert main(["generate", "--config", cfg_path, "--quiet"]) == 2
    assert capsys.readouterr() == ("", "error: output.dir: must not be empty, got ''\n")
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    for command in (["generate"], ["train"], ["sweep", "--beta", "0,1"]):
        assert main(command + ["--config", cfg_path, "--out", "", "--quiet"]) == 2
        assert capsys.readouterr() == ("", "error: --out must not be empty, got ''\n")
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]


# generate


def test_generate_writes_corpus_and_manifest(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    assert main(["generate", "--config", cfg_path]) == 0
    fingerprint = None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("generate "):
            fingerprint = line.split()[1].rstrip(":")
    run_dir = tmp_path / "out" / fingerprint
    corpus = load_partial_csv(str(run_dir / "corpus.csv"))
    assert corpus.features.shape == (200, 2)
    assert corpus.partial_masks[np.arange(200), corpus.true_labels].all()
    test = load_partial_csv(str(run_dir / "test.csv"))
    assert test.features.shape == (80, 2)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["fingerprint"] == fingerprint
    hist = manifest["set_size_histogram"]
    assert sum(hist.values()) == 200
    mean_size = corpus.partial_masks.sum(axis=1).mean()
    # mean candidate count is 1 + (K-1) q = 1.6
    assert abs(mean_size - 1.6) < 0.15


def test_generate_zero_contamination_is_singleton(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, BASE_CONFIG.replace("generation.q = 0.3", "generation.q = 0.0"),
        **{"output.dir": tmp_path / "out"},
    )
    assert main(["generate", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    fingerprint = out.split()[1].rstrip(":")
    corpus = load_partial_csv(str(tmp_path / "out" / fingerprint / "corpus.csv"))
    assert (corpus.partial_masks.sum(axis=1) == 1).all()


def test_generate_requires_generative_source(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "dataset.kind = csv\ndataset.csv = somewhere.csv\n",
    )
    assert main(["generate", "--config", cfg_path]) == 2


def test_generate_takes_no_seed_flag(tmp_path, capsys):
    # generate draws from gaussian.seed and generation.seed only.
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    with pytest.raises(SystemExit) as info:
        main(["generate", "--config", cfg_path, "--seed", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generation_kind_none_is_not_a_value(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out",
                                                      "generation.kind": "none"})
    for command in ("generate", "train"):
        assert main([command, "--config", cfg_path, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "generation.kind" in captured.err, command
        assert "'none'" in captured.err, command
        assert not (tmp_path / "out").exists()


# train


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG.replace("seeds = 0,1", "seeds = 3").replace("trainer.epochs = 2", "trainer.epochs = 1"),
        **{"output.dir": tmp_path / "out"},
    )
    assert main(["train", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    fingerprint = out.split()[1]
    run_dir = tmp_path / "out" / fingerprint
    metrics = (run_dir / "metrics_seed3.csv").read_text().splitlines()
    assert metrics[0] == f"# fingerprint={fingerprint}"
    assert metrics[1] == "epoch,lr,risk,train_accuracy,val_accuracy"
    assert len([l for l in metrics if not l.startswith("#")]) == 2  # header + 1 epoch
    assert metrics[-1].startswith("# test_accuracy=")
    assert (run_dir / "checkpoint_seed3.bin").exists()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    run = manifest["runs"][0]
    assert run["seed"] == 3
    assert "wall_clock_seconds" in run
    assert len(run["first_batch_indices"]) > 0


def test_train_is_reproducible(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "a"})
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    assert main(["train", "--config", cfg_path, "--quiet", "--out", str(tmp_path / "b")]) == 0
    for sub_a in (tmp_path / "a").iterdir():
        sub_b = tmp_path / "b" / sub_a.name
        for name in ("metrics_seed0.csv", "metrics_seed1.csv"):
            assert (sub_a / name).read_bytes() == (sub_b / name).read_bytes()


def test_train_seed_flag_overrides(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    assert main(["train", "--config", cfg_path, "--seed", "9"]) == 0
    out = capsys.readouterr().out
    fingerprint = out.split()[1]
    run_dir = tmp_path / "out" / fingerprint
    assert (run_dir / "metrics_seed9.csv").exists()
    assert not (run_dir / "metrics_seed0.csv").exists()


# sweep


def test_sweep_pairs_seeds_across_variants(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1"]) == 0
    run_dir = next((tmp_path / "out").iterdir())
    summary = (run_dir / "summary.csv").read_text().splitlines()
    assert summary[1] == "variant,alpha,beta,mean_test_accuracy,std_test_accuracy,seeds"
    rows = [line.split(",") for line in summary[2:]]
    assert [r[0] for r in rows] == ["beta0", "beta1"]
    assert all(r[5] == "2" for r in rows)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    by_seed = {}
    for variant in manifest["variants"]:
        for run in variant["runs"]:
            by_seed.setdefault(run["seed"], []).append(run["first_batch_indices"])
    assert sorted(by_seed) == [0, 1]
    for index_lists in by_seed.values():
        assert len(index_lists) == 2
        for other in index_lists[1:]:
            assert other == index_lists[0]


RUN_RECORD_KEYS = {"seed", "alpha", "beta", "test_accuracy", "final_risk",
                   "first_batch_indices", "wall_clock_seconds", "metrics", "checkpoint"}


def test_train_and_sweep_runs_have_the_same_manifest_fields(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    records = {}
    for command in (["train"], ["sweep", "--beta", "0,1"]):
        out = tmp_path / command[0]
        assert main(command + ["--config", cfg_path, "--quiet", "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        runs = manifest.get("runs") or [r for v in manifest["variants"] for r in v["runs"]]
        records[command[0]] = runs
        for run in runs:
            assert set(run) == RUN_RECORD_KEYS
            for key in ("metrics", "checkpoint"):
                path = (run_dir / run[key]).resolve()
                assert path.is_file() and path.is_relative_to(run_dir.resolve())
    assert [(r["alpha"], r["beta"], r["seed"]) for r in records["train"]] == [
        (1.0, 1.0, 0), (1.0, 1.0, 1)]
    assert [(r["beta"], r["seed"]) for r in records["sweep"]] == [
        (0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)]
    assert records["sweep"][2]["checkpoint"] == os.path.join("beta1", "checkpoint_seed0.bin")


def test_dataset_limit_applies_to_gaussian_source(tmp_path):
    text = BASE_CONFIG.replace("seeds = 0,1", "seeds = 0") + "dataset.limit = 20\n"
    cfg_path = write_config(tmp_path, text, **{"output.dir": tmp_path / "out"})
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    (run_dir,) = (tmp_path / "out").iterdir()
    (run,) = json.loads((run_dir / "manifest.json").read_text())["runs"]
    # 20 rows, 2 held out for validation; the batch of 256 holds the rest.
    assert len(run["first_batch_indices"]) == 18
    assert max(run["first_batch_indices"]) < 20
    assert main(["generate", "--config", cfg_path, "--quiet"]) == 0
    (gen_dir,) = [d for d in (tmp_path / "out").iterdir() if d != run_dir]
    assert len(load_partial_csv(str(gen_dir / "corpus.csv"))) == 20
    assert len(load_partial_csv(str(gen_dir / "test.csv"))) == 80


def test_sweep_ablation_variants(tmp_path):
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"),
        **{"output.dir": tmp_path / "out"},
    )
    assert main(["sweep", "--config", cfg_path, "--quiet", "--ablation"]) == 0
    run_dir = next((tmp_path / "out").iterdir())
    summary = (run_dir / "summary.csv").read_text().splitlines()
    names = [line.split(",")[0] for line in summary[2:]]
    assert names == ["alpha1_beta0", "alpha0_beta1", "alpha1_beta1"]


@pytest.mark.parametrize("betas, first, second", [
    ("1,1", "1.0", "1.0"),
    ("0.1,2,0.1000001", "0.1", "0.1000001"),
    ("0,-0", "0.0", "-0.0"),
])
def test_sweep_rejects_betas_that_share_a_variant(tmp_path, capsys, betas, first, second):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", betas]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --beta {first} and {second} name the same sweep variant")
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_an_empty_beta_list(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    for betas in ("", ","):
        assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", betas]) == 2
        assert capsys.readouterr().err == "error: --beta must name at least one beta\n"
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_beta_with_ablation(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    for flags in (["--ablation", "--beta", "5"], ["--beta", "5", "--ablation"]):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", cfg_path, "--quiet"] + flags)
        assert info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_variant_matches_train_with_its_beta(tmp_path):
    # A sweep prepares (and here standardizes) each seed's data once for all
    # its variants; the beta-2 variant must still train what `train` with
    # loss.beta = 2.0 trains on the same seeds.
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"dataset.standardize": "true"})
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1,2",
                 "--out", str(tmp_path / "sweep")]) == 0
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"dataset.standardize": "true",
                                                      "loss.beta": "2.0"})
    assert main(["train", "--config", cfg_path, "--quiet", "--out", str(tmp_path / "train")]) == 0
    (sweep_dir,) = (tmp_path / "sweep").iterdir()
    (train_dir,) = (tmp_path / "train").iterdir()
    for seed in (0, 1):
        name = f"checkpoint_seed{seed}.bin"
        assert (sweep_dir / "beta2" / name).read_bytes() == (train_dir / name).read_bytes()
        rows = [(d / f"metrics_seed{seed}.csv").read_text().split("\n", 1)
                for d in (sweep_dir / "beta2", train_dir)]
        assert rows[0][0].startswith("# fingerprint=") and rows[0][0] != rows[1][0]
        assert rows[0][1] == rows[1][1]


def test_serial_sweep_prepares_each_seed_once(tmp_path, monkeypatch):
    from lwpll.cli import make_gaussian_task
    from lwpll.labelgen import GenerationModel

    drawn, sampled = [], []

    def draw(*args):
        drawn.append(args[-1])
        return make_gaussian_task(*args)

    sample_sets = GenerationModel.sample_sets

    def sample(self, labels, rng):
        sampled.append(len(labels))
        return sample_sets(self, labels, rng)

    monkeypatch.setattr("lwpll.cli.make_gaussian_task", draw)
    monkeypatch.setattr(GenerationModel, "sample_sets", sample)
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1,2"]) == 0
    assert drawn == [0, 1]
    assert sampled == [200, 200]


# verify


def test_verify_passes_and_reports(capsys):
    assert main(["verify", "--trials", "60", "--k-list", "2,3,4"]) == 0
    out = capsys.readouterr().out
    tail = json.loads(out.splitlines()[-1])
    assert tail["pass"] is True
    assert tail["max_discrepancy"] < 1e-10


def test_verify_zero_trials_warns(capsys):
    assert main(["verify", "--trials", "0"]) == 0
    captured = capsys.readouterr()
    # The same sorted-key JSON line as every other verify run.
    assert captured.out == '{"instances": 0, "max_discrepancy": 0.0, "pass": true}\n'
    assert captured.err == "warning: trials=0, certification is vacuous\n"


def test_verify_injected_error_fails(capsys):
    assert main(["verify", "--trials", "60", "--k-list", "2,3,4", "--inject-beta-error"]) == 1
    tail = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert tail["pass"] is False
    assert tail["max_discrepancy"] > 1e-10


# eval


def test_eval_round_trip(tmp_path, capsys):
    separable = BASE_CONFIG.replace("seeds = 0,1", "seeds = 0").replace(
        "trainer.epochs = 2", "trainer.epochs = 20"
    )
    cfg_path = write_config(
        tmp_path, separable,
        **{"output.dir": tmp_path / "out", "trainer.batch_size": 32},
    )
    assert main(["generate", "--config", cfg_path, "--quiet"]) == 0
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    gen_dir = train_dir = None
    for sub in (tmp_path / "out").iterdir():
        if (sub / "corpus.csv").exists():
            gen_dir = sub
        if (sub / "checkpoint_seed0.bin").exists():
            train_dir = sub
    confusion = tmp_path / "confusion.csv"
    assert main([
        "eval",
        "--checkpoint", str(train_dir / "checkpoint_seed0.bin"),
        "--csv", str(gen_dir / "test.csv"),
        "--confusion", str(confusion),
    ]) == 0
    out = capsys.readouterr().out
    acc = float(out.split("accuracy=")[1].split()[0])
    assert acc >= 0.9
    lines = confusion.read_text().splitlines()
    assert lines[0] == "true_label,pred_0,pred_1,pred_2"
    counts = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:]])
    test = load_partial_csv(str(gen_dir / "test.csv"))
    per_class = np.bincount(test.true_labels, minlength=3)
    assert np.array_equal(counts.sum(axis=1), per_class)
    assert counts.sum() == 80


def test_eval_confusion_rows_are_true_labels(tmp_path, capsys):
    # An identity layer predicts each row's largest feature. This confusion
    # matrix differs from its transpose, so it pins rows as true labels.
    checkpoint = tmp_path / "identity.bin"
    save_checkpoint(NetworkParams([Layer(W=np.eye(3), b=np.zeros(3))]), checkpoint)
    onehot = ["1,0,0", "0,1,0", "0,0,1"]
    pairs = [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2), (2, 2), (2, 2)]  # (true, predicted)
    csv_path = tmp_path / "labeled.csv"
    csv_path.write_text("f0,f1,f2,candidates,true_label\n" + "".join(
        f"{onehot[pred]},{true},{true}\n" for true, pred in pairs))
    confusion = tmp_path / "confusion.csv"
    assert main(["eval", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
                 "--confusion", str(confusion)]) == 0
    assert capsys.readouterr().out.startswith(f"accuracy={4 / 7!r} n=7\n")
    assert confusion.read_text() == (
        "true_label,pred_0,pred_1,pred_2\n0,1,2,0\n1,0,0,1\n2,0,0,3\n"
    )


def test_eval_replaces_the_confusion_file_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    checkpoint = tmp_path / "identity.bin"
    save_checkpoint(NetworkParams([Layer(W=np.eye(2), b=np.zeros(2))]), checkpoint)
    csv_path = tmp_path / "labeled.csv"
    csv_path.write_text("f0,f1,candidates,true_label\n1,0,0,0\n0,1,1,1\n")
    confusion = tmp_path / "confusion.csv"
    confusion.write_text("the old matrix\n")
    argv = ["eval", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
            "--confusion", str(confusion), "--quiet"]

    def fail(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(os, "replace", fail)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot rename ")
    assert confusion.read_text() == "the old matrix\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "confusion.csv", "identity.bin", "labeled.csv"]
    monkeypatch.undo()
    assert main(argv) == 0
    assert confusion.read_text() == "true_label,pred_0,pred_1\n0,1,0\n1,0,1\n"
    assert stat.S_IMODE(confusion.stat().st_mode) == stat.S_IMODE(csv_path.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "confusion.csv", "identity.bin", "labeled.csv"]


def test_eval_architecture_mismatch(tmp_path):
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG.replace("seeds = 0,1", "seeds = 0").replace("trainer.epochs = 2", "trainer.epochs = 1"),
        **{"output.dir": tmp_path / "out"},
    )
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    checkpoint = next((tmp_path / "out").iterdir()) / "checkpoint_seed0.bin"
    wide = tmp_path / "wide.csv"
    wide.write_text("f0,f1,f2,candidates,true_label\n0.1,0.2,0.3,0,0\n")
    assert main(["eval", "--checkpoint", str(checkpoint), "--csv", str(wide)]) == 2


def test_eval_takes_the_class_count_from_the_checkpoint(tmp_path, capsys):
    four_classes = (
        BASE_CONFIG.replace("gaussian.classes = 3", "gaussian.classes = 4")
        .replace("gaussian.dim = 2", "gaussian.dim = 3")
        .replace("seeds = 0,1", "seeds = 0")
        .replace("trainer.epochs = 2", "trainer.epochs = 1")
    )
    cfg_path = write_config(tmp_path, four_classes, **{"output.dir": tmp_path / "out"})
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    checkpoint = next((tmp_path / "out").iterdir()) / "checkpoint_seed0.bin"
    # No row is of class 3, so the CSV alone would suggest K=3.
    csv_path = tmp_path / "no_top_class.csv"
    csv_path.write_text(
        "f0,f1,f2,candidates,true_label\n0.1,0.2,0.3,0|1,0\n-1.0,2.0,0.5,2,2\n"
    )
    confusion = tmp_path / "confusion.csv"
    argv = ["eval", "--checkpoint", str(checkpoint), "--csv", str(csv_path),
            "--confusion", str(confusion)]
    assert main(argv) == 0
    assert "accuracy=" in capsys.readouterr().out
    lines = confusion.read_text().splitlines()
    assert lines[0] == "true_label,pred_0,pred_1,pred_2,pred_3"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]
    assert sum(int(c) for line in lines[1:] for c in line.split(",")[1:]) == 2
    csv_path.write_text("f0,f1,f2,candidates,true_label\n0.1,0.2,0.3,4,4\n")
    assert main(argv) == 2
    assert "class index 4" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(argv + ["--num-classes", "4"])


def test_eval_rejects_malformed_inputs_with_exit_2(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG.replace("seeds = 0,1", "seeds = 0").replace("trainer.epochs = 2", "trainer.epochs = 1"),
        **{"output.dir": tmp_path / "out"},
    )
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    checkpoint = next((tmp_path / "out").iterdir()) / "checkpoint_seed0.bin"
    bad_rows = [
        "f0,f1,candidates\n1.0,0\n",
        "f0,f1,candidates,true_label\n1.0,2.0,0|x,0\n",
        "f0,f1,candidates,true_label\n1.0,2.0,0|1,one\n",
        "f0,f1,candidates,true_label\n1.0,2.0,0|1,\n",
        "f0,f1,candidates,true_label\n1.0,2.0,3.0,0,0\n",
    ]
    csv_path = tmp_path / "bad.csv"
    for text in bad_rows:
        csv_path.write_text(text)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--csv", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert f"{csv_path}:2: " in err, text
        assert "Traceback" not in err
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("f0,f1,candidates,true_label\n1.0,2.0,0,0\n")
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes(b"LWNN\x01")
    assert main(["eval", "--checkpoint", str(truncated), "--csv", str(good_csv)]) == 2
    assert "truncated checkpoint" in capsys.readouterr().err


def test_eval_rejects_a_checkpoint_that_cannot_score_with_exit_2(tmp_path, capsys):
    def layer(out_w, in_w, fill=0.5):
        return Layer(W=np.full((out_w, in_w), fill), b=np.zeros(out_w))

    good_csv = tmp_path / "good.csv"
    good_csv.write_text("f0,f1,candidates,true_label\n1.0,2.0,0,0\n")
    broken = {
        "zero_layers": [],
        "zero_width": [layer(3, 0)],
        "one_output": [layer(4, 2), layer(1, 4)],
        "all_nan": [layer(4, 2, fill=np.nan), layer(3, 4, fill=np.nan)],
    }
    for name, layers in broken.items():
        path = tmp_path / f"{name}.bin"
        save_checkpoint(NetworkParams(layers), path)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path), "--csv", str(good_csv)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: "), (name, lines)


@pytest.mark.parametrize("arch", ["linear", "mlp"])
def test_eval_rejects_a_checkpoint_with_any_byte_flipped_with_exit_2(tmp_path, capsys, arch):
    params = init_network(network_widths(arch, 2, 3, hidden=2), make_rng(173))
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("f0,f1,candidates,true_label\n1.0,2.0,0,0\n")
    path = tmp_path / "net.bin"
    argv = ["eval", "--checkpoint", str(path), "--csv", str(good_csv),
            "--confusion", str(tmp_path / "confusion.csv"), "--quiet"]
    save_checkpoint(params, path)
    blob = path.read_bytes()
    assert main(argv) == 0
    # Every byte of the magic, the version, the widths, the payload digest and
    # the payload, each flipped with ^ 0x01 and with ^ 0xFF.
    for at, flip in itertools.product(range(len(blob)), (0x01, 0xFF)):
        path.write_bytes(blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1 :])
        capsys.readouterr()
        assert main(argv) == 2, (at, flip)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1, (at, flip, captured)
        assert lines[0].startswith(f"error: {path}: "), (at, flip, lines)
    # The same network as a version-1 file: each layer's out, in and activation
    # code (1 relu on all but the last layer, 0 identity), then the weights,
    # with no payload digest.
    relu = [i < len(params.layers) - 1 for i in range(len(params.layers))]
    weights = b"".join(a.tobytes() for l in params.layers for a in (l.W, l.b))
    table = [struct.pack("<IIB", *l.W.shape, code) for l, code in zip(params.layers, relu)]
    path.write_bytes(b"LWNN" + struct.pack("<II", 1, len(table)) + b"".join(table) + weights)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: unsupported checkpoint version 1\n"
    # As a version-2 file: each layer's out and in, the payload digest, then
    # the activation codes and the weights.
    payload = bytes(relu) + weights
    path.write_bytes(b"LWNN" + struct.pack("<II", 2, len(table))
                     + b"".join(struct.pack("<II", *l.W.shape) for l in params.layers)
                     + hashlib.sha256(payload).digest() + payload)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: unsupported checkpoint version 2\n"


def test_missing_or_unlabeled_test_set_fails_before_training(tmp_path):
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG.replace("gaussian.test_n = 80", "gaussian.test_n = 0"),
        **{"output.dir": tmp_path / "out"},
    )
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1"]) == 2
    assert not list(tmp_path.glob("out/**/metrics_*.csv"))
    assert not list(tmp_path.glob("out/**/summary.csv"))
    (tmp_path / "train.csv").write_text("f0,candidates,true_label\n1.0,0,0\n2.0,0|1,1\n")
    (tmp_path / "unlabeled.csv").write_text("f0,candidates\n1.0,0\n2.0,1\n")
    unlabeled_test = (
        f"dataset.kind = csv\ndataset.csv = {tmp_path / 'train.csv'}\n"
        f"dataset.test_csv = {tmp_path / 'unlabeled.csv'}\n"
    )
    cfg_path = write_config(tmp_path, unlabeled_test, **{"output.dir": tmp_path / "csv"})
    for command in (["train"], ["sweep", "--beta", "0,1"]):
        assert main(command + ["--config", cfg_path, "--quiet"]) == 2
    assert not (tmp_path / "csv").exists()


def test_input_errors_name_their_file(tmp_path, capsys):
    (tmp_path / "train.csv").write_text("f0,candidates,true_label\n1.0,0,0\n2.0,0|1,1\n")
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text("f0,candidates\n1.0,0\n2.0,1\n")
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(8)))
    labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 0]))
    cases = (
        (f"dataset.kind = csv\ndataset.csv = {tmp_path / 'train.csv'}\n"
         f"dataset.test_csv = {unlabeled}\n",
         f"error: {unlabeled}: the test set has no true labels to score against\n"),
        (f"dataset.kind = idx\ndataset.images = {images}\ndataset.labels = {labels}\n",
         f"error: {labels}: need at least 2 classes, got 1\n"),
    )
    for text, message in cases:
        cfg_path = write_config(tmp_path, text, **{"output.dir": tmp_path / "out"})
        assert main(["train", "--config", cfg_path, "--quiet"]) == 2
        assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "out").exists()


def test_input_too_large_for_memory_exits_2_and_keeps_output_dir(tmp_path, capsys):
    # 10**15 entries exceed any host's memory and the 128 TiB address space of
    # 4-level x86-64 paging, so the allocations fail everywhere.
    huge_class = tmp_path / "huge_class.csv"
    huge_class.write_text(f"f0,candidates,true_label\n1.0,0,0\n2.0,0|{10**15},0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("kept")
    cases = (
        (f"dataset.kind = csv\ndataset.csv = {huge_class}\n",
         f"error: {huge_class}: 2 x {10**15 + 1} candidate masks do not fit in memory\n"),
        (BASE_CONFIG.replace("gaussian.n = 200", f"gaussian.n = {10**15}"),
         f"error: gaussian.n={10**15}, gaussian.test_n=80, gaussian.dim=2: Unable to allocate"),
    )
    for text, message in cases:
        cfg_path = write_config(tmp_path, text, **{"output.dir": out})
        assert main(["train", "--config", cfg_path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err
        assert os.listdir(out) == ["kept.txt"]


def test_reject_full_model_with_full_set_mass_near_one_runs(tmp_path, capsys):
    # With 2 classes and q near 1 the full set has mass 0.9999999, so every
    # set drawn from the law without it is {y}.
    text = (BASE_CONFIG.replace("gaussian.classes = 3", "gaussian.classes = 2")
            .replace("generation.q = 0.3", "generation.q = 0.9999999")
            + "generation.reject_full = true\n")
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, text, **{"output.dir": out})
    for command in (["generate"], ["train"], ["sweep", "--beta", "0,1"]):
        assert main(command + ["--config", cfg_path, "--quiet"]) == 0
        assert capsys.readouterr().err == ""
    (corpus_path,) = out.glob("*/corpus.csv")
    corpus = load_partial_csv(str(corpus_path))
    assert np.array_equal(corpus.partial_masks, np.eye(2, dtype=bool)[corpus.true_labels])


def test_test_rows_that_cannot_be_scored_fail_train_sweep_and_eval(tmp_path, capsys):
    train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
    train_csv.write_text("f0,f1,candidates,true_label\n" + "".join(
        f"{i % 3}.0,{i % 5}.5,{i % 3}|{(i + 1) % 3},{i % 3}\n" for i in range(40)))
    # Row 2's scores overflow to +-inf.
    test_csv.write_text("f0,f1,candidates,true_label\n0,1,0,0\n1e308,-1e308,1,1\n2,2,2,2\n")
    message = (f"error: {test_csv}: the model's scores for row 2 (counting from 1) "
               "are not finite\n")
    source = f"dataset.kind = csv\ndataset.csv = {train_csv}\ntrainer.epochs = 2\nseeds = 0\n"
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, source + f"dataset.test_csv = {test_csv}\n",
                            **{"output.dir": out})
    for command in (["train"], ["sweep", "--beta", "0,1"]):
        assert main(command + ["--config", cfg_path, "--quiet"]) == 2
        assert capsys.readouterr() == ("", message)
        assert not out.exists()
    cfg_path = write_config(tmp_path, source, **{"output.dir": out})
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    checkpoint = next(out.iterdir()) / "checkpoint_seed0.bin"
    confusion = tmp_path / "confusion.csv"
    assert main(["eval", "--checkpoint", str(checkpoint), "--csv", str(test_csv),
                 "--confusion", str(confusion), "--quiet"]) == 2
    assert capsys.readouterr() == ("", message)
    # Scores of inf - inf are NaN, which argmax would count as class 0.
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("f0,f1,candidates,true_label\n1,1,0,0\n1e308,1e308,0,0\n")
    sums = Layer(W=np.ones((2, 2)), b=np.zeros(2))
    diff = Layer(W=np.array([[1.0, -1.0], [0.0, 0.0]]), b=np.zeros(2))
    save_checkpoint(NetworkParams([sums, diff]), tmp_path / "nan.bin")
    assert main(["eval", "--checkpoint", str(tmp_path / "nan.bin"), "--csv", str(nan_csv),
                 "--confusion", str(confusion), "--quiet"]) == 2
    assert capsys.readouterr() == ("", message.replace(str(test_csv), str(nan_csv)))
    assert not confusion.exists()


def write_idx_source(tmp_path, name, n, side):
    """IDX files of `n` random `side` x `side` images, labelled 0, 1, 2, 0, ..."""
    pixels = np.random.default_rng(n + side).integers(0, 256, size=n * side * side)
    images, labels = tmp_path / f"{name}_images.idx", tmp_path / f"{name}_labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, n, side, side) + bytes(pixels.tolist()))
    labels.write_bytes(struct.pack(">II", 0x801, n) + bytes(i % 3 for i in range(n)))
    return images, labels


@pytest.mark.parametrize("case", ["csv", "csv_standardized", "idx"])
def test_test_set_of_another_width_fails_before_any_run(tmp_path, capsys, monkeypatch, case):
    if case == "idx":
        images, labels = write_idx_source(tmp_path, "train", 30, 3)
        test_images, test_labels = write_idx_source(tmp_path, "test", 6, 2)
        text = (f"dataset.kind = idx\ndataset.images = {images}\ndataset.labels = {labels}\n"
                f"dataset.test_images = {test_images}\ndataset.test_labels = {test_labels}\n")
        test_path, widths = test_images, (4, 9)
    else:
        rows = "".join(f"{i},{-i},{i % 5},{i % 3},{i % 3}\n" for i in range(40))
        (tmp_path / "train.csv").write_text("f0,f1,f2,candidates,true_label\n" + rows)
        test_path = tmp_path / "test.csv"
        test_path.write_text("f0,f1,candidates,true_label\n"
                             + "".join(f"{i},{i},{i % 3},{i % 3}\n" for i in range(20)))
        text = (f"dataset.kind = csv\ndataset.csv = {tmp_path / 'train.csv'}\n"
                f"dataset.test_csv = {test_path}\n"
                f"dataset.standardize = {str(case == 'csv_standardized').lower()}\n")
        widths = (2, 3)
    runs = []
    monkeypatch.setattr("lwpll.cli.train", lambda *args, **kwargs: runs.append(args))
    cfg_path = write_config(tmp_path, text, **{"output.dir": tmp_path / "out"})
    for command in (["train"], ["sweep", "--beta", "0,1"]):
        assert main(command + ["--config", cfg_path, "--quiet"]) == 2
        assert capsys.readouterr() == ("", f"error: {test_path}: the test set has {widths[0]} "
                                           f"features, the training set {widths[1]}\n")
    assert runs == []
    assert not (tmp_path / "out").exists()


def test_idx_train_and_test_run_records_a_test_accuracy(tmp_path, capsys):
    images, labels = write_idx_source(tmp_path, "train", 60, 3)
    test_images, test_labels = write_idx_source(tmp_path, "test", 12, 3)
    text = (f"dataset.kind = idx\ndataset.images = {images}\ndataset.labels = {labels}\n"
            f"dataset.test_images = {test_images}\ndataset.test_labels = {test_labels}\n"
            "trainer.epochs = 2\n")
    cfg_path = write_config(tmp_path, text, **{"output.dir": tmp_path / "out"})
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    (run_dir,) = (tmp_path / "out").iterdir()
    (run,) = json.loads((run_dir / "manifest.json").read_text())["runs"]
    assert 0.0 <= run["test_accuracy"] <= 1.0
    last = (run_dir / "metrics_seed0.csv").read_text().splitlines()[-1]
    assert last == f"# test_accuracy={run['test_accuracy']!r}"


def test_eval_errors_name_their_files(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        BASE_CONFIG.replace("seeds = 0,1", "seeds = 0").replace("trainer.epochs = 2", "trainer.epochs = 1"),
        **{"output.dir": tmp_path / "out"},
    )
    assert main(["train", "--config", cfg_path, "--quiet"]) == 0
    checkpoint = next((tmp_path / "out").iterdir()) / "checkpoint_seed0.bin"
    unlabeled, wide = tmp_path / "unlabeled.csv", tmp_path / "wide.csv"
    unlabeled.write_text("f0,f1,candidates\n0.1,0.2,0\n")
    wide.write_text("f0,f1,f2,candidates,true_label\n0.1,0.2,0.3,0,0\n")
    cases = (
        (unlabeled, f"error: {unlabeled}: evaluation needs a true_label column\n"),
        (wide, f"error: {wide}: the dataset has d=3, but checkpoint {checkpoint} expects d=2\n"),
    )
    for csv_path, message in cases:
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(checkpoint), "--csv", str(csv_path)]) == 2
        assert capsys.readouterr() == ("", message)


def test_sweep_without_a_test_set_names_its_key(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "gaussian.test_n = 0\n", **{"output.dir": tmp_path / "out"})
    assert main(["sweep", "--config", cfg_path, "--quiet"]) == 2
    assert capsys.readouterr().err == "error: sweep needs a test set, but gaussian.test_n = 0\n"
    assert not (tmp_path / "out").exists()


def test_csv_source_is_read_once_per_command(tmp_path, monkeypatch):
    gen_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "gen"})
    assert main(["generate", "--config", gen_path, "--quiet"]) == 0
    gen_dir = next((tmp_path / "gen").iterdir())
    loaded = []

    def counting_load(path, num_classes=None):
        loaded.append(path)
        return load_partial_csv(path, num_classes=num_classes)

    monkeypatch.setattr("lwpll.cli.load_partial_csv", counting_load)
    csv_config = (
        f"dataset.kind = csv\ndataset.csv = {gen_dir / 'corpus.csv'}\n"
        f"dataset.test_csv = {gen_dir / 'test.csv'}\n"
        "trainer.epochs = 2\nseeds = 0,1\n"
    )
    cfg_path = write_config(tmp_path, csv_config, **{"output.dir": tmp_path / "out"})
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1"]) == 0
    assert sorted(os.path.basename(p) for p in loaded) == ["corpus.csv", "test.csv"]


def test_sidecars_leave_every_output_byte_unchanged(tmp_path, capsys, monkeypatch):
    # generate writes a binary sidecar beside each CSV; sweep and eval read
    # it in place of the text, and must write the same bytes either way.
    gen_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "gen"})
    assert main(["generate", "--config", gen_path, "--quiet"]) == 0
    gen_dir = next((tmp_path / "gen").iterdir())
    sidecars = sorted(gen_dir.glob("*.lwb"))
    assert [p.name for p in sidecars] == ["corpus.csv.lwb", "test.csv.lwb"]
    parsed = []
    parse = lwpll.data._parse_csv
    monkeypatch.setattr(lwpll.data, "_parse_csv",
                        lambda path: parsed.append(path) or parse(path))
    csv_config = (
        f"dataset.kind = csv\ndataset.csv = {gen_dir / 'corpus.csv'}\n"
        f"dataset.test_csv = {gen_dir / 'test.csv'}\n"
        "trainer.epochs = 2\nseeds = 0,1\n"
    )

    def run(name):
        out = tmp_path / name
        cfg_path = write_config(tmp_path, csv_config, **{"output.dir": out})
        assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1"]) == 0
        (run_dir,) = out.iterdir()
        assert main(["eval", "--checkpoint", str(run_dir / "beta1" / "checkpoint_seed0.bin"),
                     "--csv", str(gen_dir / "test.csv"),
                     "--confusion", str(out / "confusion.csv"), "--quiet"]) == 0
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.suffix in (".csv", ".bin")}
        return files, capsys.readouterr().out

    with_sidecars = run("with")
    assert parsed == []
    for sidecar in sidecars:
        sidecar.unlink()
    assert run("without") == with_sidecars
    assert sorted(os.path.basename(p) for p in parsed) == ["corpus.csv", "test.csv", "test.csv"]
    names = [name.split("/")[-1] for name in with_sidecars[0]]
    assert len(names) == 10 and {"confusion.csv", "summary.csv"} <= set(names)


def test_failed_generate_leaves_no_sidecar(tmp_path, capsys, monkeypatch):
    # The corpus and its sidecar are written; the test set's write fails.
    save = lwpll.cli.save_partial_csv

    def failing_save(dataset, path):
        if os.path.basename(path) == "test.csv":
            raise OSError(f"{path}: no space left on device")
        save(dataset, path)

    monkeypatch.setattr(lwpll.cli, "save_partial_csv", failing_save)
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": out})
    assert main(["generate", "--config", cfg_path, "--quiet"]) == 2
    assert "no space left on device" in capsys.readouterr().err
    assert not out.exists() and list(tmp_path.rglob("*.lwb")) == []


def test_unknown_config_path_is_reported(tmp_path):
    assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_verify_rejects_bad_arguments_before_checking(capsys):
    cases = (
        (["--trials", "-5"], "--trials"),
        (["--k-list", ""], "--k-list"),
        (["--k-list", "0,2"], "--k-list"),
        (["--k-list", "2,17"], "--k-list"),
        (["--seed", "-1"], "--seed must be >= 0, got -1"),
    )
    for args, option in cases:
        assert main(["verify", "--quiet"] + args) == 2
        captured = capsys.readouterr()
        assert option in captured.err
        assert captured.out == ""


def test_duplicate_seeds_fail_before_any_run_directory(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0,1,0"),
        **{"output.dir": tmp_path / "out"},
    )
    assert main(["train", "--config", cfg_path, "--quiet"]) == 2
    assert "seeds: duplicate seed 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seeds_fail_before_any_run_directory(tmp_path, capsys):
    out = tmp_path / "out"
    cases = (
        (["train"], {"seeds": "1,-1"}, "error: seeds: must be >= 0, got -1\n"),
        (["generate"], {"generation.seed": -1},
         "error: generation.seed: must be >= 0, got -1\n"),
        (["train", "--seed", "-2"], {}, "error: --seed must be >= 0, got -2\n"),
        (["sweep", "--beta", "0", "--seed", "-1"], {}, "error: --seed must be >= 0, got -1\n"),
    )
    text = BASE_CONFIG.replace("seeds = 0,1\n", "")
    for args, extra, message in cases:
        cfg_path = write_config(tmp_path, text, **{"output.dir": out}, **extra)
        assert main(args + ["--config", cfg_path, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert not out.exists()


@pytest.mark.parametrize("given, missing", [
    ("dataset.test_images", "dataset.test_labels"),
    ("dataset.test_labels", "dataset.test_images"),
])
def test_idx_test_set_needs_both_files_before_any_run_directory(tmp_path, capsys,
                                                                given, missing):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(8)))
    labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
    text = (f"dataset.kind = idx\ndataset.images = {images}\ndataset.labels = {labels}\n"
            f"{given} = {images if given.endswith('images') else labels}\n")
    cfg_path = write_config(tmp_path, text, **{"output.dir": tmp_path / "out"})
    for command in ("generate", "train"):
        assert main([command, "--config", cfg_path, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: dataset.kind=idx requires {missing}\n"
        )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["gaussian", "idx"])
def test_num_classes_outside_csv_fails_before_any_run_directory(tmp_path, capsys, kind):
    text = BASE_CONFIG
    if kind == "idx":
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(8)))
        labels.write_bytes(struct.pack(">II", 0x801, 2) + bytes([0, 1]))
        text = f"dataset.kind = idx\ndataset.images = {images}\ndataset.labels = {labels}\n"
    cfg_path = write_config(tmp_path, text, **{"output.dir": tmp_path / "out",
                                               "dataset.num_classes": 5})
    for command in (["generate"], ["train"], ["sweep", "--beta", "0"]):
        assert main(command + ["--config", cfg_path, "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: dataset.num_classes: applies to dataset.kind=csv "
                                f"only, got dataset.kind={kind}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, keys, problem", [
    ("generation.q1 = 0.1\n", "generation.q1=0.1, generation.q2=0.3, generation.q3=0.1",
     "case 3 needs q1 > q2 > q3, got 0.1, 0.3, 0.1"),
    ("", "generation.q1=0.5, generation.q2=0.3, generation.q3=0.1",
     "case 3 needs more than 6 classes"),
], ids=["q_order", "class_count"])
def test_generation_errors_name_their_keys(tmp_path, capsys, extra, keys, problem):
    text = BASE_CONFIG + "generation.kind = case3\n" + extra
    cfg_path = write_config(tmp_path, text, **{"output.dir": tmp_path / "out"})
    for command in (["generate"], ["train"], ["sweep", "--beta", "0,1"]):
        assert main(command + ["--config", cfg_path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: generation.kind='case3', {keys}: {problem}"), err
    assert not (tmp_path / "out").exists()


def test_every_manifest_names_its_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR")
    # the float64 exp and log loops NumPy runs in this process
    loops = opt_func_info(func_name="^(exp|log)$", signature="float64")
    dispatch = {"exp": loops["exp"]["dd"]["current"], "log": loops["log"]["dd"]["current"]}
    cfg_path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 0,1", "seeds = 0"))
    for command in (["generate"], ["train"], ["sweep", "--beta", "0"]):
        out = tmp_path / command[0]
        assert main(command + ["--config", cfg_path, "--quiet", "--out", str(out)]) == 0
        (run_dir,) = out.iterdir()
        env = json.loads((run_dir / "manifest.json").read_text())["environment"]
        assert env.pop("OPENBLAS_NUM_THREADS") == "3" and env.pop("OMP_NUM_THREADS") is None
        assert env.pop("OPENBLAS_CORETYPE") == "Haswell"
        assert env.pop("NPY_DISABLE_CPU_FEATURES") == "AVX512_SPR"
        assert env.pop("numpy_dispatch") == dispatch
        assert env.pop("python") == platform.python_version()
        assert env.pop("numpy") == np.__version__
        assert env.pop("cpu_count") == os.cpu_count()
        assert set(env) == {"blas", "blas_version"}


# failed runs publish nothing


def write_huge_feature_csvs(tmp_path):
    """A labeled corpus and test set whose 1e200 features make training overflow."""
    rows = "".join(f"1e200,1e200,{i % 3}|{(i + 1) % 3},{i % 3}\n" for i in range(40))
    (tmp_path / "huge.csv").write_text("f0,f1,candidates,true_label\n" + rows)
    (tmp_path / "huge_test.csv").write_text(
        "f0,f1,candidates,true_label\n1e200,1e200,0,0\n1e200,1e200,1,1\n"
    )
    return (
        f"dataset.kind = csv\ndataset.csv = {tmp_path / 'huge.csv'}\n"
        f"dataset.test_csv = {tmp_path / 'huge_test.csv'}\n"
        "loss.psi = cross_entropy\ntrainer.epochs = 2\nseeds = 0,1\n"
    )


FAILURES = {  # command, config text (None: overflowing CSV), exit status, message
    "generate_bad_q": (
        ["generate"], BASE_CONFIG.replace("generation.q = 0.3", "generation.q = 1.5"),
        2, "generation.q: must lie in [0, 1)",
    ),
    "train_bad_val_fraction": (
        ["train"], BASE_CONFIG + "trainer.val_fraction = 1.5\n", 2,
        "trainer.val_fraction: must lie",
    ),
    "train_diverges": (["train"], None, 1, "diverged"),
    "sweep_diverges": (["sweep", "--beta", "0,1"], None, 1, "diverged"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failed_command_leaves_no_run_directory(tmp_path, capsys, case):
    command, text, status, message = FAILURES[case]
    out = tmp_path / "out"
    text = write_huge_feature_csvs(tmp_path) if text is None else text
    cfg_path = write_config(tmp_path, text, **{"output.dir": out})
    assert main(command + ["--config", cfg_path, "--quiet"]) == status
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    # Neither a <fingerprint> directory nor a .<fingerprint>.* stage.
    assert not out.exists() or os.listdir(out) == []


def test_failed_command_removes_the_directories_it_made(tmp_path, capsys):
    # Five means do not fit in two dimensions: the Gaussian draw fails after
    # the stage is made.
    text = BASE_CONFIG.replace("gaussian.classes = 3", "gaussian.classes = 5")
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "x" / "y" / "z", tmp_path / "kept" / "y" / "z"):
        cfg_path = write_config(tmp_path, text, **{"output.dir": out})
        assert main(["train", "--config", cfg_path, "--quiet"]) == 2
        assert "cannot place 5 equidistant means" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["exp.cfg", "kept"]
    assert os.listdir(tmp_path / "kept") == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_rerun_keeps_the_previous_run_directory(tmp_path):
    gen_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "gen"})
    assert main(["generate", "--config", gen_path, "--quiet"]) == 0
    gen_dir = next((tmp_path / "gen").iterdir())
    corpus = tmp_path / "corpus.csv"
    corpus.write_bytes((gen_dir / "corpus.csv").read_bytes())
    csv_config = (
        f"dataset.kind = csv\ndataset.csv = {corpus}\n"
        f"dataset.test_csv = {gen_dir / 'test.csv'}\n"
        "loss.psi = cross_entropy\ntrainer.epochs = 2\nseeds = 0,1\n"
    )
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, csv_config, **{"output.dir": out})
    for command in (["train"], ["sweep", "--beta", "0,1"]):
        assert main(command + ["--config", cfg_path, "--quiet"]) == 0
    names = sorted(os.listdir(out))
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    # Published directories get the mode os.mkdir gives, not the stage's 0700.
    assert len({stat.S_IMODE(p.stat().st_mode) for p in [out, *out.rglob("*")] if p.is_dir()}) == 1
    # train: 2 metrics, 2 checkpoints, manifest; sweep: 2 variants x 4 + summary, manifest
    assert len(names) == 2 and len(before) == 5 + 10
    # The fingerprint names the corpus path, not its bytes: the same runs,
    # rerun on overflowing features, diverge and must publish nothing.
    lines = corpus.read_text().splitlines()
    corpus.write_text(
        "\n".join([lines[0]] + ["1e200,1e200," + line.split(",", 2)[2] for line in lines[1:]])
        + "\n"
    )
    for command in (["train"], ["sweep", "--beta", "0,1"]):
        assert main(command + ["--config", cfg_path, "--quiet"]) == 1
    assert sorted(os.listdir(out)) == names
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_diverging_train_reports_cleanly_when_warnings_are_errors(tmp_path):
    cfg_path = write_config(tmp_path, write_huge_feature_csvs(tmp_path),
                            **{"output.dir": tmp_path / "out"})
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lwpll", "train",
         "--config", cfg_path, "--quiet"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: train ") and "diverged" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not (tmp_path / "out").exists()
