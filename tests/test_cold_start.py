"""No command loads SciPy, checked in fresh interpreters.

NumPy is lwpll's only runtime dependency: the sigmoid and the log-softmax
are written with NumPy. So importing the package, `--help`, a rejected
config and every command, `verify` and `train` (which evaluate losses)
among them, must load no `scipy` module.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from lwpll import init_network, make_rng, network_widths, save_checkpoint

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# Runs `lwpll` with the given arguments (or only imports the package when
# there are none), then reports which scipy modules ended up loaded.
PROBE = """
import sys
try:
    import lwpll
    if sys.argv[1:]:
        from lwpll.cli import main
        sys.exit(main(sys.argv[1:]))
finally:
    print("loaded:", *[m for m in sys.modules if m.split(".")[0] == "scipy"],
          file=sys.stderr)
"""

CONFIG = """
gaussian.classes = 3
gaussian.dim = 2
gaussian.n = 60
gaussian.test_n = 20
trainer.epochs = 1
seeds = 0,1
"""


def run_probe(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    report = proc.stderr.splitlines()[-1]
    assert report.startswith("loaded:"), proc.stderr
    return proc.returncode, set(report.split()[1:])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cold")
    (root / "exp.cfg").write_text(CONFIG + f"output.dir = {root / 'out'}\n")
    (root / "bad.cfg").write_text(CONFIG + "trainer.epoch = 1\n")
    return root


def test_generate_and_eval_load_neither(workdir):
    code, loaded = run_probe("generate", "--config", "exp.cfg", "--quiet", cwd=workdir)
    assert (code, loaded) == (0, set())
    (test_csv,) = (workdir / "out").glob("*/test.csv")
    params = init_network(network_widths("linear", 2, 3), make_rng(0))
    save_checkpoint(params, workdir / "net.bin")
    code, loaded = run_probe("eval", "--checkpoint", "net.bin", "--csv", test_csv,
                             "--quiet", cwd=workdir)
    assert (code, loaded) == (0, set())


@pytest.mark.parametrize("args, status", [
    ((), 0),
    (("--help",), 0),
    (("train", "--config", "bad.cfg"), 2),
])
def test_import_help_and_rejected_config_load_neither(workdir, args, status):
    assert run_probe(*args, cwd=workdir) == (status, set())


def test_loss_evaluating_commands_load_no_scipy(workdir):
    code, loaded = run_probe("verify", "--k-list", "2", "--trials", "3", "--quiet",
                             cwd=workdir)
    assert (code, loaded) == (0, set())
    code, loaded = run_probe("train", "--config", "exp.cfg", "--quiet", cwd=workdir)
    assert (code, loaded) == (0, set())

