"""The config table's checks, probed with extreme values.

Every schema key is set to each probe value and run through `generate` and
`train`; so are `train --seed`, `sweep --beta` and `verify --seed/--trials`.
Each case must exit 0, exit 1 as a diverged run, or exit 2 with the key or
flag named on stderr. No case may raise, and a failing case leaves no stage
or run directory behind.
"""

import dataclasses
import inspect
import os
import re

import pytest

from lwpll import LWConfig, TrainerConfig, train
from lwpll.cli import _SCHEMA, ConfigError, ExperimentConfig, main

BASE = {"gaussian.n": "60", "gaussian.test_n": "20", "trainer.epochs": "1", "seeds": "0,1"}
PROBES = ("-1", "0", "nan", "inf", "-inf", "1e308")


def run(argv, capsys):
    """(exit status, stderr) of one command; argparse exits by SystemExit."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    return status, capsys.readouterr().err


def check_outcome(case, status, err, name, out):
    assert "Traceback" not in err, case
    if status == 0:
        return
    if status == 1:
        assert err.startswith("error: ") and "diverged" in err, (case, err)
    else:
        assert status == 2 and name in err, (case, status, err)
    # Neither a <fingerprint> directory nor a .<fingerprint>.* stage.
    assert not out.exists() or os.listdir(out) == [], case


def write_probe_config(tmp_path, values):
    path = tmp_path / "probe.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return str(path)


@pytest.mark.parametrize("key", list(_SCHEMA))
def test_every_key_meets_the_probe_values_cleanly(tmp_path, capsys, key):
    for i, value in enumerate(PROBES):
        for command in ("generate", "train"):
            out = tmp_path / (value if key == "output.dir" else f"{command}{i}")
            values = {**BASE, "output.dir": out, key: value}
            if key == "output.dir":
                values[key] = out
            cfg_path = write_probe_config(tmp_path, values)
            status, err = run([command, "--config", cfg_path, "--quiet"], capsys)
            case = f"{command} with {key} = {value}"
            check_outcome(case, status, err, key, out)
            if value in ("nan", "inf", "-inf") and _SCHEMA[key][0] is not str:
                assert status == 2, case  # bad input, never a diverged run


FLAG_CASES = {
    "train --seed": (["train", "--quiet", "--seed={}"], "--seed"),
    "sweep --beta": (["sweep", "--quiet", "--beta={}"], "--beta"),
    "verify --seed": (["verify", "--quiet", "--k-list", "2", "--trials", "1", "--seed={}"],
                      "--seed"),
    "verify --trials": (["verify", "--quiet", "--k-list", "2", "--trials={}"], "--trials"),
}


@pytest.mark.parametrize("flag", sorted(FLAG_CASES))
def test_every_checked_flag_meets_the_probe_values_cleanly(tmp_path, capsys, flag):
    args, name = FLAG_CASES[flag]
    for i, value in enumerate(PROBES):
        out = tmp_path / f"out{i}"
        argv = [arg.format(value) for arg in args]
        if argv[0] != "verify":
            argv += ["--config", write_probe_config(tmp_path, {**BASE, "output.dir": out})]
        status, err = run(argv, capsys)
        check_outcome(f"{flag}={value}", status, err, name, out)
        if value in ("-1", "nan", "inf", "-inf"):
            assert status == 2, (flag, value)


def test_override_runs_the_check_pass():
    cfg = ExperimentConfig({})
    for key in _SCHEMA:
        bad = (0, 0) if key == "seeds" else float("nan")
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            cfg.override(**{key: bad})
    for key, bad in (("trainer.val_fraction", 1.5), ("loss.beta", float("inf")),
                     ("gaussian.test_n", -1), ("model.arch", "rnn")):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must "):
            cfg.override(**{key: bad})
    with pytest.raises(ConfigError, match="^unknown config keys: trainer.warmup$"):
        cfg.override(**{"trainer.warmup": 5})
    assert cfg.values == ExperimentConfig({}).values


def test_trainer_keys_are_the_trainer_config_fields():
    # The CLI passes every trainer.* key to TrainerConfig by name, and its
    # defaults are the library's wherever the library has one.
    keys = {key.removeprefix("trainer.") for key in _SCHEMA if key.startswith("trainer.")}
    fields = {field.name: field for field in dataclasses.fields(TrainerConfig)}
    assert keys == set(fields) - {"seed"}
    for key in keys:
        if fields[key].default is not dataclasses.MISSING:
            assert _SCHEMA[f"trainer.{key}"][1] == fields[key].default, key
    lw = LWConfig(beta=_SCHEMA["loss.beta"][1])
    assert _SCHEMA["loss.alpha"][1] == lw.alpha
    assert _SCHEMA["loss.psi"][1] == lw.psi.name
    train_defaults = inspect.signature(train).parameters
    for key in ("arch", "hidden"):
        assert _SCHEMA[f"model.{key}"][1] == train_defaults[key].default, key
