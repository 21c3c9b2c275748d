"""Golden bytes: the exact files `generate`, `train` and `sweep` write.

One tiny gaussian config (K=3, d=4, 96 + 24 rows, 2 epochs, seeds 0 and 1)
is run through the CLI, and every corpus, metrics, checkpoint and summary
file is compared with a SHA-256 recorded with NumPy 2.4.6 and SciPy 1.17.1
(the versions CI pins). Identity across code versions, not just across two
invocations of one version, is what lets a refactor or a speedup show that
it kept the output bytes. A digest may only change in a change that says
why the bytes moved.

The bytes also depend on the BLAS kernel and thread count, so each command
runs in a subprocess with both pinned (`PINNED_ENV`): scipy-openblas's
Haswell kernel, which every x86-64 CPU with AVX2 can run, and 1 thread.
Left to itself, OpenBLAS picks its kernel by CPU (SkylakeX with AVX512,
Haswell or Zen with AVX2 only), and four of the train digests differ
between those. The d = 784 digests guard the thread count too: at that
width the linear model's first-layer product differs between 1 and 2
threads.
"""

import hashlib
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PINNED_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}


def _unpinnable() -> str | None:
    """Why this NumPy cannot run the pinned kernel, or None if it can."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the digests pin an x86-64 OpenBLAS kernel; this machine is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    if blas != "scipy-openblas":
        return f"the digests were recorded with scipy-openblas; NumPy here uses {blas}"
    return None


UNPINNABLE = _unpinnable()
pytestmark = pytest.mark.skipif(UNPINNABLE is not None, reason=str(UNPINNABLE))

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
    "ramp": {"loss.psi": "ramp"},
    "per_batch_weights": {"trainer.per_batch_weight_update": "true"},
}

GOLDEN = {
    "generate": {
        "corpus.csv": "f0fcd5bb8ea5a72c22dc3107768a5e1e9c688bf3f6b394b8ec144f8bfa032416",
        "test.csv": "ebc82c215da37f3f1a0258bada79fef4705cebc45142edbbf570f88dc2ac1ca9",
    },
    "train_cross_entropy": {
        "checkpoint_seed0.bin": "81a1ceb5588ace4ff30f0030434ee04baab62e61b675fdd34cc9be50150fc4f4",
        "checkpoint_seed1.bin": "0c36867da0583281d57d83c974387ddf78c1ba59e0fb4a8ea4028b9f6d28466a",
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
        "checkpoint_seed0.bin": "7ae39dce7e52f874ef3e7e566cbac2fd62f2fd1e4be603bd598d93b2aa20cc5a",
        "checkpoint_seed1.bin": "78c1eb2aefbe85e48cce37f5c46244c3229ad01673916eb049e867cfa4c3e497",
        "metrics_seed0.csv": "8d294352dc5618e30d41a314a8418da5ba9fdf3c463ea138db15904029b970e0",
        "metrics_seed1.csv": "037a7f5bae88947ca60d6479cb60cf46305d66c8468611402e5d49e82e3f3092",
    },
    "train_per_batch_weights": {
        "checkpoint_seed0.bin": "228ff2630be3ba817ecfce436c63b27a52dfafaafed05bcc2f9fe13178f6c4e6",
        "checkpoint_seed1.bin": "25f1da076a73d2de446b7e380d12fb8b11ba21f7f7bc152813eb6fb74d3d66e2",
        "metrics_seed0.csv": "1bb2e813349608d984ba8469225a6e5c580b00f78bf57ca8788497d3f15d55bd",
        "metrics_seed1.csv": "44e9cd1fcea60ff2e156078f8ed83b98f78881926126445d02c52ce7fd97be03",
    },
    "train_ramp": {
        "checkpoint_seed0.bin": "6f7cab2df325b6fae266c8509446bc0b083e146f9a22796566003f4b340d1182",
        "checkpoint_seed1.bin": "69050f271029f18d6eb23abba4b661451735a99826f23077a0e456141892db33",
        "metrics_seed0.csv": "dcc04b3af20e753ab3aa11cc7d0b275d36191215832eee6f02fbc55a821457b4",
        "metrics_seed1.csv": "8471e386cea22649945214029461bc060fd9571f376bdbe58e6e918887ac5f77",
    },
    "sweep_summary": "9497aaac271d092b0ffe8c49292e13fffc898abb8fcfa461a4197e67d6320fae",
}

# MNIST's width: K = 10, d = 784, 600 + 100 rows, case-3 candidate sets.
D784_CONFIG = """
gaussian.classes = 10
gaussian.dim = 784
gaussian.n = 600
gaussian.test_n = 100
gaussian.separation = 8.0
generation.kind = case3
trainer.epochs = 3
seeds = 0
"""

D784_VARIANTS = {"linear": {}, "mlp": {"model.arch": "mlp"}}

D784_GOLDEN = {
    "linear": {
        "checkpoint_seed0.bin": "e04d55898bc600a9b84c529b685e6d74f2d3c2e7275f1bbe43cce91ea0061754",
        "metrics_seed0.csv": "612d05a99de574adae247b7720fcbe3cbe65223ac64013e1243657a62d3ebf8b",
    },
    "mlp": {
        "checkpoint_seed0.bin": "90aecf7be13fbd128a7382a93fe698cff53f1ca18a87d765621e05401d0ea13d",
        "metrics_seed0.csv": "84c394a47c413dde275026127e3685a33fd6346f0cff48a0d9ccde386eec46e1",
    },
}


def run_and_hash(tmp_path, argv, extra=None, config=GOLDEN_CONFIG):
    """Run one command on `config` in a subprocess under `PINNED_ENV`; digest
    every CSV and checkpoint it writes."""
    out = tmp_path / "out"
    lines = [config] + [f"{k} = {v}" for k, v in (extra or {}).items()]
    cfg = tmp_path / "golden.cfg"
    cfg.write_text("\n".join(lines) + f"\noutput.dir = {out}\n")
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "lwpll", *argv,
         "--config", str(cfg), "--quiet"],
        env={**os.environ, **PINNED_ENV, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
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


@pytest.mark.parametrize("variant", sorted(D784_VARIANTS))
def test_d784_train_bytes(tmp_path, variant):
    got = run_and_hash(tmp_path, ["train"], D784_VARIANTS[variant], config=D784_CONFIG)
    assert got == D784_GOLDEN[variant]
