"""Golden bytes: the exact files `generate`, `train` and `sweep` write.

One tiny gaussian config (K=3, d=4, 96 + 24 rows, 2 epochs, seeds 0 and 1)
is run through the CLI, and every corpus, corpus sidecar, metrics,
checkpoint and summary file is compared with a SHA-256 recorded with NumPy
2.4.6 (the version CI pins). Identity across code versions, not just
across two invocations of one version, is what lets a refactor or a speedup
show that it kept the output bytes. A digest may only change in a change
that says why the bytes moved.

The bytes also depend on NumPy's SIMD dispatch and on the BLAS kernel and
thread count, so each command runs in a subprocess with all three pinned
(`PINNED_ENV`). NumPy 2.4's AVX512 loops (its X86_V4 target and above) for
float64 `exp` and `log` differ in the last bit of some values from its
X86_V3 (AVX2) loops, whose results are libm's; `NPY_DISABLE_CPU_FEATURES`
turns off every target above X86_V3 that this host has, and is left unset
where there is none. OpenBLAS is held to scipy-openblas's Haswell kernel,
which every x86-64 CPU with AVX2 can run, and 1 thread. Left to itself,
OpenBLAS picks its kernel by CPU (SkylakeX with AVX512, Haswell or Zen with
AVX2 only); under SkylakeX, 7 of these 11 tests fail. The
d = 784 digests guard the thread count too: at that width the linear
model's first-layer product differs between 1 and 2 threads.
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


def numpy_dispatch_pin() -> str:
    """NumPy's active dispatch targets above X86_V3, space-separated, or ""
    when it has none (or names no X86_V3 target)."""
    try:
        found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (KeyError, TypeError):
        return ""
    return " ".join(found[found.index("X86_V3") + 1:]) if "X86_V3" in found else ""


_ABOVE_X86_V3 = numpy_dispatch_pin()
PINNED_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1",
              **({"NPY_DISABLE_CPU_FEATURES": _ABOVE_X86_V3} if _ABOVE_X86_V3 else {})}

# Prints the dispatch a manifest records, run under PINNED_ENV.
DISPATCH_PROBE = "from lwpll.cli import _environment; print(_environment()['numpy_dispatch'])"


def _unpinnable() -> str | None:
    """Why this NumPy cannot run the pinned kernel and loops, or None if it can."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"the digests pin an x86-64 OpenBLAS kernel; this machine is {platform.machine()}"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    if blas != "scipy-openblas":
        return f"the digests were recorded with scipy-openblas; NumPy here uses {blas}"
    probe = subprocess.run(
        [sys.executable, "-W", "error", "-c", DISPATCH_PROBE],
        env={**os.environ, **PINNED_ENV, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True,
    )
    pinned = str({"exp": "X86_V3", "log": "X86_V3"})
    if (probe.returncode, probe.stdout.strip()) != (0, pinned):
        return (f"the digests were recorded with NumPy's X86_V3 loops for float64 exp "
                f"and log; under the pin this NumPy runs {probe.stdout.strip() or probe.stderr}")
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
    "weight_decay": {"trainer.weight_decay": "0.01"},
}

GOLDEN = {
    "generate": {
        "corpus.csv": "f0fcd5bb8ea5a72c22dc3107768a5e1e9c688bf3f6b394b8ec144f8bfa032416",
        "test.csv": "ebc82c215da37f3f1a0258bada79fef4705cebc45142edbbf570f88dc2ac1ca9",
        "corpus.csv.lwb": "030932d493a54f80141307ec3edf581e5cec972fbc2c83a99364cedd522296f9",
        "test.csv.lwb": "781b2da3c9cf830c9255e783ee24d96d6b6a1c7a5f6c78a2759ebfd68f48a542",
    },
    "generate_reject_full": {
        "corpus.csv": "d81a6818d1f47f7b69637822aad0646558a4e8f7e9ba0c97f8195eafe26832c5",
        "test.csv": "ebc82c215da37f3f1a0258bada79fef4705cebc45142edbbf570f88dc2ac1ca9",
        "corpus.csv.lwb": "ce873aab3b16fc22c6263aa9ba8613b099fea7835a5baa500d100b10845ef98a",
        "test.csv.lwb": "781b2da3c9cf830c9255e783ee24d96d6b6a1c7a5f6c78a2759ebfd68f48a542",
    },
    "train_cross_entropy": {
        "checkpoint_seed0.bin": "2b791c720fa779cf0e0224deff04a26af7aecadad81448fe26691a1e92a1eb62",
        "checkpoint_seed1.bin": "ad54ac9ba514085800dc250579fa31f8d956887fdf182341d99ba8c329684619",
        "metrics_seed0.csv": "54deff62b2a713064d0aa359300011a9bf2ce66433701ead7cb73af61fd4c9bc",
        "metrics_seed1.csv": "6d7e38dbbe90ce2c0df848964c380626e6e2b14003e1264557ac34c2c58298db",
    },
    "train_linear_sigmoid": {
        "checkpoint_seed0.bin": "6856fd13c26be25c4851964a8b2020a7c24890125f83f439f89c10e2b2725578",
        "checkpoint_seed1.bin": "4896fc405c2146dcc8704618407b07e18bd7cb611d4a672b5a5d1eb8cc5b1d02",
        "metrics_seed0.csv": "e957e9b8c4e07d12117efec4a5a3cf75579055bab6712f046f26dd6b1aa9fccd",
        "metrics_seed1.csv": "9d242e4a3b5f730dbd87f2a682b767ad2bfdce20603904202773e7ffd1a0d7ab",
    },
    "train_mlp_hidden8": {
        "checkpoint_seed0.bin": "96c2e0c8f555b66bd7bea18606c435c95ac822c22c61eb89c255e82cc865b1fe",
        "checkpoint_seed1.bin": "6657bf0e1372a5cd9a64e27af70dbb4afa58b91fd4574c190dc8dd21f0cbac52",
        "metrics_seed0.csv": "8d294352dc5618e30d41a314a8418da5ba9fdf3c463ea138db15904029b970e0",
        "metrics_seed1.csv": "037a7f5bae88947ca60d6479cb60cf46305d66c8468611402e5d49e82e3f3092",
    },
    "train_per_batch_weights": {
        "checkpoint_seed0.bin": "5935f5d1c8ccec35b0209b591f48411fc6150430b75b295bdee5921c603dd88a",
        "checkpoint_seed1.bin": "18f98760b6badbb44b24927be6f89f938393dc53a1089a57f851769f671cc8a2",
        "metrics_seed0.csv": "1bb2e813349608d984ba8469225a6e5c580b00f78bf57ca8788497d3f15d55bd",
        "metrics_seed1.csv": "44e9cd1fcea60ff2e156078f8ed83b98f78881926126445d02c52ce7fd97be03",
    },
    "train_ramp": {
        "checkpoint_seed0.bin": "261b138a147ef30daf26c758ec9471aff2db1b66c46e75bcec23dfde669699e0",
        "checkpoint_seed1.bin": "58be56f3c4810735afa16254566c322b44cb0fa0e08d4e354f77230b9b6d8546",
        "metrics_seed0.csv": "dcc04b3af20e753ab3aa11cc7d0b275d36191215832eee6f02fbc55a821457b4",
        "metrics_seed1.csv": "8471e386cea22649945214029461bc060fd9571f376bdbe58e6e918887ac5f77",
    },
    "train_weight_decay": {
        "checkpoint_seed0.bin": "3c3752cf206cfb1594cf4ce67c3de87c1f0453ec7c692519c8e41bc434b2529f",
        "checkpoint_seed1.bin": "638ba2d4faccc051bc5156dc21db59095769fd3e4c9351d8413606bfbe478c54",
        "metrics_seed0.csv": "3c36846334e63a83b6d24c9ff443f4a67f1b3d0f8ccf8bad69af7feeddb2835c",
        "metrics_seed1.csv": "8f7d543745284156eb00c21a8266535efde6b234e667fa79cae7fe2e6251b403",
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
        "checkpoint_seed0.bin": "ed7ce40d9e136540619242a534f3713b50ecfcc2f60d1fe7b1d3867ea42f99f8",
        "metrics_seed0.csv": "612d05a99de574adae247b7720fcbe3cbe65223ac64013e1243657a62d3ebf8b",
    },
    "mlp": {
        "checkpoint_seed0.bin": "99dd5fea468cf335f07df25ee441884b9f646754907bc3ed05c5acea993cc89d",
        "metrics_seed0.csv": "84c394a47c413dde275026127e3685a33fd6346f0cff48a0d9ccde386eec46e1",
    },
}


def run_and_hash(tmp_path, argv, extra=None, config=GOLDEN_CONFIG):
    """Run one command on `config` in a subprocess under `PINNED_ENV`; digest
    every CSV, CSV sidecar and checkpoint it writes."""
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
        if path.suffix in (".csv", ".bin", ".lwb")
    }


def test_generate_bytes(tmp_path):
    assert run_and_hash(tmp_path, ["generate"]) == GOLDEN["generate"]


def test_generate_reject_full_bytes(tmp_path):
    got = run_and_hash(tmp_path, ["generate"], {"generation.reject_full": "true"})
    assert got == GOLDEN["generate_reject_full"]


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
