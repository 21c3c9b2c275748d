"""Experiment harness: configs, fingerprints, and the five subcommands."""

import json
import os
import stat
import struct
import subprocess
import sys

import numpy as np
import pytest

from lwpll import Layer, NetworkParams, load_partial_csv, save_checkpoint
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
    parsed = parse_config_text("a.b = 1  # trailing comment\n\n# full comment\nc = hi\n")
    assert parsed == {"a.b": "1", "c": "hi"}


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


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
        "dataset.kind = csv\ndataset.csv = somewhere.csv\ngeneration.kind = none\n",
    )
    assert main(["generate", "--config", cfg_path]) == 2


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


def test_sweep_parallel_matches_serial(tmp_path):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "serial"})
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1"]) == 0
    env_before = os.environ.get("LW_THREADS")
    os.environ["LW_THREADS"] = "2"
    try:
        assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1",
                     "--out", str(tmp_path / "par")]) == 0
    finally:
        if env_before is None:
            del os.environ["LW_THREADS"]
        else:
            os.environ["LW_THREADS"] = env_before
    serial_dir = next((tmp_path / "serial").iterdir())
    par_dir = next((tmp_path / "par").iterdir())
    assert (serial_dir / "summary.csv").read_bytes() == (par_dir / "summary.csv").read_bytes()


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
    text = (captured.out + captured.err).lower()
    assert "vacuous" in text


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
        return Layer(W=np.full((out_w, in_w), fill), b=np.zeros(out_w), activation="identity")

    good_csv = tmp_path / "good.csv"
    good_csv.write_text("f0,f1,candidates,true_label\n1.0,2.0,0,0\n")
    broken = {
        "zero_layers": [],
        "zero_width": [layer(3, 0)],
        "mismatch": [layer(4, 2), layer(3, 5)],
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
    cfg_path = write_config(tmp_path, csv_config, **{"output.dir": tmp_path / "serial"})
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1"]) == 0
    assert sorted(os.path.basename(p) for p in loaded) == ["corpus.csv", "test.csv"]
    monkeypatch.setenv("LW_THREADS", "2")
    assert main(["sweep", "--config", cfg_path, "--quiet", "--beta", "0,1",
                 "--out", str(tmp_path / "par")]) == 0
    serial_dir = next((tmp_path / "serial").iterdir())
    par_dir = next((tmp_path / "par").iterdir())
    for rel in ("summary.csv", "beta0/metrics_seed1.csv", "beta1/checkpoint_seed0.bin"):
        assert (serial_dir / rel).read_bytes() == (par_dir / rel).read_bytes()


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


def test_bad_lw_threads_fails_before_any_run_directory(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, BASE_CONFIG, **{"output.dir": tmp_path / "out"})
    for value in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("LW_THREADS", value)
        for command in (["train"], ["sweep", "--beta", "0,1"]):
            assert main(command + ["--config", cfg_path, "--quiet"]) == 2
            assert "LW_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    env = dict(os.environ, LW_THREADS="1")
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
