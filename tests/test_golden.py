"""Golden bytes: the exact files `generate`, `train` and `sweep` write.

One tiny gaussian config (K=3, d=4, 96 + 24 rows, 2 epochs, seeds 0 and 1)
is run through the CLI, and every corpus, metrics, checkpoint and summary
file is compared with a SHA-256 recorded with NumPy 2.4.6 and SciPy 1.17.1
(the versions CI pins). Identity across code versions, not just across two
invocations of one version, is what lets a refactor or a speedup show that
it kept the output bytes. A digest may only change in a change that says
why the bytes moved.
"""

import hashlib

import pytest

from lwpll.cli import main

GOLDEN_CONFIG = """
gaussian.classes = 3
gaussian.dim = 4
gaussian.n = 96
gaussian.test_n = 24
gaussian.separation = 3.0
generation.q = 0.3
trainer.epochs = 2
trainer.batch_size = 32
trainer.learning_rate = 0.1
seeds = 0,1
"""

TRAIN_VARIANTS = {
    "linear_sigmoid": {},
    "mlp_hidden8": {"model.arch": "mlp", "model.hidden": "8"},
    "cross_entropy": {"loss.psi": "cross_entropy"},
    "per_batch_weights": {"trainer.per_batch_weight_update": "true"},
}

GOLDEN = {
    "generate": {
        "corpus.csv": "f0fcd5bb8ea5a72c22dc3107768a5e1e9c688bf3f6b394b8ec144f8bfa032416",
        "test.csv": "ebc82c215da37f3f1a0258bada79fef4705cebc45142edbbf570f88dc2ac1ca9",
    },
    "train_cross_entropy": {
        "checkpoint_seed0.bin": "13e81448e70776375513b195160d4af489fea05cb1fe86c980c932e9c63d203e",
        "checkpoint_seed1.bin": "7ff13203ee761cee4894e17bdcb4a6691497cca5bb9f40ddeae124f289e7e9c6",
        "metrics_seed0.csv": "a6fb1b025b295cba876035647b1d8d44db013d788a5fa461ea7769cc8756db70",
        "metrics_seed1.csv": "6d7e38dbbe90ce2c0df848964c380626e6e2b14003e1264557ac34c2c58298db",
    },
    "train_linear_sigmoid": {
        "checkpoint_seed0.bin": "0df277ab4649fdd1d8f0938a57c6af289e2f8210151a5a895cb92bb6bd64e67b",
        "checkpoint_seed1.bin": "083c649aabb794607c8428ec900d85b38be531de75b58fa221ef73b6f600791a",
        "metrics_seed0.csv": "e957e9b8c4e07d12117efec4a5a3cf75579055bab6712f046f26dd6b1aa9fccd",
        "metrics_seed1.csv": "9d242e4a3b5f730dbd87f2a682b767ad2bfdce20603904202773e7ffd1a0d7ab",
    },
    "train_mlp_hidden8": {
        "checkpoint_seed0.bin": "bf8b8910316ef4e8d1ecd0ab3d6e6b789d4145ee8e9062e66cfe643c9cb20ade",
        "checkpoint_seed1.bin": "22a79c52b2a946270bd5c4a9149ec1d298730ee643bf891eeab42cd014ba3da6",
        "metrics_seed0.csv": "8d294352dc5618e30d41a314a8418da5ba9fdf3c463ea138db15904029b970e0",
        "metrics_seed1.csv": "037a7f5bae88947ca60d6479cb60cf46305d66c8468611402e5d49e82e3f3092",
    },
    "train_per_batch_weights": {
        "checkpoint_seed0.bin": "228ff2630be3ba817ecfce436c63b27a52dfafaafed05bcc2f9fe13178f6c4e6",
        "checkpoint_seed1.bin": "13a63f8040cacaec9ecd1741ace75ad8557eb16446f20d1a949ea132334ebb6e",
        "metrics_seed0.csv": "1bb2e813349608d984ba8469225a6e5c580b00f78bf57ca8788497d3f15d55bd",
        "metrics_seed1.csv": "44e9cd1fcea60ff2e156078f8ed83b98f78881926126445d02c52ce7fd97be03",
    },
    "sweep_summary": "9497aaac271d092b0ffe8c49292e13fffc898abb8fcfa461a4197e67d6320fae",
}


def run_and_hash(tmp_path, argv, extra=None):
    """Run one command on the golden config; digest every CSV and checkpoint."""
    out = tmp_path / "out"
    lines = [GOLDEN_CONFIG] + [f"{k} = {v}" for k, v in (extra or {}).items()]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text("\n".join(lines) + f"\noutput.dir = {out}\n")
    assert main(argv + ["--config", str(cfg), "--quiet"]) == 0
    (run_dir,) = out.iterdir()
    return {
        path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.rglob("*"))
        if path.suffix in (".csv", ".bin")
    }


def test_generate_bytes(tmp_path):
    assert run_and_hash(tmp_path, ["generate"]) == GOLDEN["generate"]


@pytest.mark.parametrize("variant", sorted(TRAIN_VARIANTS))
def test_train_bytes(tmp_path, variant):
    got = run_and_hash(tmp_path, ["train"], TRAIN_VARIANTS[variant])
    assert got == GOLDEN[f"train_{variant}"]


def test_sweep_summary_bytes(tmp_path):
    got = run_and_hash(tmp_path, ["sweep", "--beta", "0,1"])
    assert got["summary.csv"] == GOLDEN["sweep_summary"]
