import argparse
import ast
import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nvmdtd
from nvmdtd import harness
from nvmdtd.analytic import optimal_threshold_bisection
from nvmdtd.channel import NoiseModel, sample_block_matrix, save_dataset
from nvmdtd.config import (
    DEFAULT_CONFIG,
    channel_params,
    load_config,
    quantizer_spec,
    resolve_config,
    train_config,
)
from nvmdtd.cli import _build_parser, main
from nvmdtd.errors import ConfigError
from nvmdtd.nn.models import create_model
from nvmdtd.nn.weights_io import read_weight_manifest, save_weights


class TestResolveConfig:
    def test_defaults_apply(self):
        cfg = resolve_config({})
        assert cfg["seed"] == 12345
        assert cfg["channel"]["ratio"] == 0.05
        assert cfg["train"]["minibatch_blocks"] == 2
        assert cfg["train"]["train_blocks"] == 1600
        assert cfg["eval"]["blocks"] == 100_000

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="channel.mei"):
            resolve_config({"channel": {"mei": 1}})
        with pytest.raises(ConfigError, match="unknown config key: typo"):
            resolve_config({"typo": 1})

    def test_cli_overrides(self):
        cfg = resolve_config({"seed": 7})
        assert cfg["seed"] == 7

    def test_paper_scale_budgets(self):
        cfg = resolve_config({"train": {"kind": "mlp"}}, paper_scale=True)
        assert cfg["train"]["train_blocks"] == 1_000_000
        assert cfg["train"]["minibatch_blocks"] == 4
        assert cfg["eval"]["blocks"] == 1_000_000
        assert "paper_scale" not in cfg

    def test_explicit_values_win_over_scale(self):
        cfg = resolve_config({"train": {"train_blocks": 123}}, paper_scale=True)
        assert cfg["train"]["train_blocks"] == 123

    def test_channel_params_construction(self):
        cfg = resolve_config({"channel": {"ratio": 0.1, "mu_b": -0.2,
                                          "sigma_b_over_mu1": 0.04}})
        p = channel_params(cfg["channel"])
        assert p.sigma0 == pytest.approx(0.1)
        assert p.offset_sigma_b == pytest.approx(0.08)
        assert p.noise_model is NoiseModel.GAUSSIAN

    def test_bad_noise_model(self):
        with pytest.raises(ConfigError, match="noise_model"):
            resolve_config({"channel": {"noise_model": "cauchy"}})

    def test_quantizer_section(self):
        assert quantizer_spec(None) is None
        spec = quantizer_spec({"bits": 4})
        assert spec.bits == 4 and spec.lo == 0.5

    def test_train_config_roundtrip(self):
        cfg = resolve_config({"train": {"epochs": 3}, "seed": 9})
        tc = train_config(cfg)
        assert tc.epochs == 3 and tc.seed == 9

    def test_segments_resolved_with_defaults(self):
        cfg = resolve_config({"session": {"segments": [
            {"start_block": 0, "channel": {"ratio": 0.1}},
            {"start_block": 50, "channel": {"mu_b": -0.3}},
        ]}})
        segs = cfg["session"]["segments"]
        assert segs[0]["channel"]["mu0"] == 1.0
        assert segs[1]["channel"]["mu_b"] == -0.3

    def test_resolved_configs_share_nothing(self):
        """Mutating a resolved config changes no default, user document or other resolved config."""
        def scramble(node):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in list(items):
                if isinstance(value, (dict, list)):
                    scramble(value)
                node[key] = "scrambled"
            if isinstance(node, list):
                node.append("scrambled")

        user = {"seed": 3, "channel": {"ratio": 0.1}, "eval": {"detectors": ["midpoint"]},
                "session": {"segments": [{"start_block": 0, "channel": {"mu_b": -0.3}}]}}
        defaults, user_copy = json.dumps(DEFAULT_CONFIG), json.dumps(user)
        first, second = resolve_config(user), resolve_config(user)
        expected = json.dumps(second)
        assert list(first) == list(DEFAULT_CONFIG)
        assert all(list(first[k]) == list(v) for k, v in DEFAULT_CONFIG.items() if isinstance(v, dict))
        scramble(first)
        assert json.dumps(DEFAULT_CONFIG) == defaults
        assert json.dumps(user) == user_copy
        assert json.dumps(second) == expected
        assert json.dumps(resolve_config(user)) == expected

    def test_load_config_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"seed": 1,,}')
        with pytest.raises(ConfigError, match=r"bad\.json:1:"):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("text", ["[]", "7", "null", '"seed"'])
    def test_load_config_top_level_must_be_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
            load_config(path)
        assert main(["analytic", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: top level must be a JSON object\n"

    def test_readme_config_example_resolves(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
        block = re.sub(r"/\*.*?\*/", "", block, flags=re.S)
        block = re.sub(r"//[^\n]*", "", block)
        resolve_config(json.loads(block))


_README = Path(__file__).resolve().parents[1] / "README.md"
# The dests of the flags that set no config key.
_NOT_CONFIG_DESTS = ("help", "config", "out", "paper_scale")


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's subparser, by command name."""
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestReadme:
    def test_flag_table_matches_flag_keys(self):
        """Each row's flags, commands and keys are those of the parser: a flag's key is its dest."""
        keys = {command: {a.option_strings[0]: a.dest for a in parser._actions
                          if a.dest not in _NOT_CONFIG_DESTS}
                for command, parser in _subparsers().items()}
        table = re.search(r"\| flag \| commands \| config key \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                          _README.read_text()).group(1)
        seen = set()
        for line in table.splitlines():
            flags, commands, cell = line.strip("|").split("|")
            flags = re.findall(r"`(--[\w-]+)`", flags)
            commands = (list(keys) if commands.strip() == "all"
                        else re.findall(r"`(\w+)`", commands))
            for flag in flags:
                assert commands == [c for c in keys if flag in keys[c]], flag
            expected = [keys[c][flag] for flag in flags for c in commands]
            assert re.findall(r"`([\w.]+)`", cell) == list(dict.fromkeys(expected)), line
            seen |= {(c, flag) for flag in flags for c in commands}
        assert seen == {(c, flag) for c in keys for flag in keys[c]}

    def test_python_blocks_import_existing_names(self):
        blocks = re.findall(r"```python\n(.*?)```", _README.read_text(), re.S)
        assert blocks
        for block in blocks:
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "nvmdtd":
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.split(".")[0] == "nvmdtd":
                            importlib.import_module(alias.name)


@pytest.fixture()
def tiny_train_config(tmp_path):
    doc = {
        "seed": 321,
        "n": 12,
        "channel": {"ratio": 0.05},
        "train": {"kind": "rnn", "epochs": 2, "train_blocks": 100,
                  "validation_blocks": 50, "hidden": 8},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def rnn_weights(tmp_path):
    """An untrained small RNN's weight file; the RNN runs at any block length."""
    path = tmp_path / "w.nvmw"
    save_weights(create_model("rnn", 8, np.random.default_rng(0), hidden=4), path, seed=0, n=8)
    return path


# Each command with a config that keeps it small, and flags on top of that config.
_RERUN_CASES = [
    ("gen", {"n": 9, "seed": 3, "gen": {"blocks": 20}}, []),
    ("eval", {"n": 16, "channel": {"ratio": 0.1},
              "eval": {"blocks": 200, "detectors": ["midpoint", "opt-full"]}}, []),
    ("train", {"seed": 321, "n": 12, "train": {"kind": "rnn", "epochs": 2, "train_blocks": 100,
                                               "validation_blocks": 50, "hidden": 8}}, []),
    ("session", {"n": 16, "session": {
        "genie": True, "total_blocks": 300, "m_blocks": 30,
        "segments": [{"start_block": 0, "channel": {"ratio": 0.1}},
                     {"start_block": 120, "channel": {"ratio": 0.1, "mu_b": -0.3}}],
        "trigger": {"kind": "periodic", "period": 50}}}, []),
    ("analytic", {"channel": {"noise_model": "centered-beta"}},
     ["--ratio", "0.08", "--mu-b", "-0.2"]),
    ("dtd", {"n": 16, "channel": {"ratio": 0.1}, "dtd": {"blocks": 100}}, ["--genie"]),
    ("sweep", {"n": 8, "sweep": {"ratios": [0.1], "blocks": 100, "calib_blocks": 20,
                                 "detectors": ["midpoint", "rnn", "dtd-rnn"]}},
     ["--weights-rnn", "{weights}"]),
    ("session", {"n": 8, "session": {"total_blocks": 200, "m_blocks": 20,
                                     "trigger": {"kind": "periodic", "period": 50}}},
     ["--weights", "{weights}"]),
    ("sweep", {"n": 8, "sweep": {"ratios": [0.1], "blocks": 50, "detectors": ["rnn"],
                                 "quantizer": {"bits": 4}}},
     ["--weights-rnn", "{weights}"]),
]


# Each command that takes --out, a config that keeps it small, and the files it writes.
_RUN_FILES = [
    ("gen", {"n": 9, "gen": {"blocks": 5}}, {"dataset.txt"}),
    ("train", {"n": 8, "train": {"kind": "rnn", "epochs": 1, "train_blocks": 4,
                                 "validation_blocks": 4, "hidden": 4}},
     {"weights-rnn.nvmw", "curve.csv"}),
    ("eval", {"n": 8, "eval": {"blocks": 20, "detectors": ["midpoint"]}}, {"eval.csv"}),
    ("dtd", {"n": 8, "dtd": {"blocks": 20, "genie": True}}, {"dtd.json"}),
    ("sweep", {"n": 8, "sweep": {"ratios": [0.1], "blocks": 20, "detectors": ["midpoint"]}},
     {"sweep.csv"}),
    ("session", {"n": 8, "session": {"genie": True, "total_blocks": 60, "m_blocks": 10,
                                     "trigger": {"kind": "periodic", "period": 20}}},
     {"session.csv", "session.json"}),
]


@pytest.mark.parametrize("command, doc, files", _RUN_FILES, ids=[c[0] for c in _RUN_FILES])
def test_command_writes_exactly_its_files(tmp_path, command, doc, files):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == files | {"config-resolved.json"}


class TestCliTrain:
    def test_writes_outputs(self, tmp_path, tiny_train_config):
        out = tmp_path / "run"
        rc = main(["train", "--config", str(tiny_train_config), "--out", str(out)])
        assert rc == 0
        assert (out / "weights-rnn.nvmw").is_file()
        assert (out / "config-resolved.json").is_file()
        curve = (out / "curve.csv").read_text().splitlines()
        assert curve[0] == "epoch,val_ber,train_loss"
        assert len(curve) == 3  # header + one row per epoch
        echoed = json.loads((out / "config-resolved.json").read_text())
        assert echoed["command"] == "train"
        assert echoed["seed"] == 321

    def test_same_seed_same_weight_bytes(self, tmp_path, tiny_train_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(tiny_train_config), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(tiny_train_config), "--out", str(out2)]) == 0
        assert (out1 / "weights-rnn.nvmw").read_bytes() == (out2 / "weights-rnn.nvmw").read_bytes()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {')
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad.json:1:" in capsys.readouterr().err

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": 1, "x": "\xff"}')
        rc = main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    # Each request needs more than the 128 TiB address space of a 64-bit
    # process, so its first allocation fails before any memory is touched.
    _BEYOND_MEMORY = [
        (["train"], {"n": 8, "train": {"kind": "mlp", "hidden": 10 ** 15, "epochs": 1,
                                       "train_blocks": 4, "validation_blocks": 4}}),
        (["gen"], {"gen": {"blocks": 10 ** 15}}),
    ]
    # Each of these has a dimension or a byte count beyond numpy's signed
    # index range, so it is refused before any allocation.
    _BEYOND_INDEX_RANGE = [
        (["gen"], {"gen": {"blocks": 10 ** 20}}),
        (["gen"], {"gen": {"blocks": 2 ** 62}}),
        (["gen"], {"n": 10 ** 30}),
        (["train"], {"n": 8, "train": {"kind": "mlp", "hidden": 10 ** 20, "epochs": 1,
                                       "train_blocks": 4, "validation_blocks": 4}}),
        (["train"], {"n": 8, "train": {"kind": "rnn", "hidden": 10 ** 20, "epochs": 1,
                                       "train_blocks": 4, "validation_blocks": 4}}),
        (["dtd", "--genie"], {"dtd": {"blocks": 10 ** 20}}),
    ]

    @pytest.mark.parametrize("argv, doc", _BEYOND_MEMORY + _BEYOND_INDEX_RANGE)
    def test_request_beyond_address_space_exits_2(self, tmp_path, capsys, argv, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if (argv, doc) in self._BEYOND_MEMORY:
            assert "error: Unable to allocate" in err
        else:
            assert "is beyond numpy's index range" in err

    # Each of these streams its blocks, so it allocates little, and would run for
    # far longer than any test: more reads than one streamed pass may make.
    _BEYOND_PASS_BOUND = [
        (["eval"], {"n": 8, "eval": {"blocks": 10 ** 15, "detectors": ["midpoint"]}},
         "an evaluation pass of 1000000000000000 blocks of 8 bits makes 8000000000000000 reads"),
        (["sweep"], {"n": 8, "sweep": {"blocks": 10 ** 15, "detectors": ["midpoint"]}},
         "an evaluation pass of 1000000000000000 blocks of 8 bits makes 8000000000000000 reads"),
        (["session", "--genie"], {"session": {"total_blocks": 10 ** 15}},
         "a session of 1000000000000000 blocks of 71 bits makes 71000000000000000 reads"),
        (["session", "--genie"], {"session": {"total_blocks": 10 ** 20}},
         "a session of 100000000000000000000 blocks of 71 bits makes 7100000000000000000000 reads"),
    ]

    @pytest.mark.parametrize("argv, doc, count", _BEYOND_PASS_BOUND)
    def test_pass_beyond_the_read_bound_exits_2(self, tmp_path, capsys, argv, doc, count):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {count}, more than the 1000000000000 one streamed pass may make\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gen", "eval"])
    @pytest.mark.parametrize("quantizer, message", [
        ({"bitz": 3}, "unknown config key: eval.quantizer.bitz"),
        ({"bits": 3.5}, "eval.quantizer.bits must be an integer"),
        ({"lo": "0.5"}, "eval.quantizer.lo must be a number"),
        ("3", "eval.quantizer: expected an object"),
    ])
    def test_bad_quantizer_key_exits_2(self, tmp_path, capsys, command, quantizer, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"eval": {"quantizer": quantizer}}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_quantizer_echo_is_resolved(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gen": {"blocks": 2}, "eval": {"quantizer": {"bits": 4}},
                                   "sweep": {"quantizer": {"hi": 3.0}}}))
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        echoed = json.loads((tmp_path / "o" / "config-resolved.json").read_text())
        assert echoed["eval"]["quantizer"] == {"bits": 4, "lo": 0.5, "hi": 2.5}
        assert echoed["sweep"]["quantizer"] == {"bits": 3, "lo": 0.5, "hi": 3.0}

    @pytest.mark.parametrize("n", [7.5, 0, "71", True])
    def test_non_integer_n_exits_2(self, tmp_path, capsys, n):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": n}))
        rc = main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "n must be a positive integer" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"train": {"epohcs": 3}}')
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "train.epohcs" in capsys.readouterr().err

    def test_unknown_key_in_segment_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"session": {"genie": True, "segments": [
            {"start_block": 0}, {"start_block": 10, "chanel": {"ratio": 0.1}}]}}))
        rc = main(["session", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown config key: session.segments[1].chanel" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, key", [
        ("eval", {"channel": {"ratio": "0.05"}}, "channel.ratio"),
        ("train", {"channel": {"ratio": "0.05"}}, "channel.ratio"),
        ("train", {"train": {"epochs": 1.5}}, "train.epochs"),
        ("train", {"train": {"hidden": 7.5}}, "train.hidden"),
        ("train", {"train": {"hidden": -1}}, "train.hidden"),
        ("train", {"train": {"epochs": None}}, "train.epochs"),
        ("sweep", {"sweep": {"ratios": ["0.1"]}}, "sweep.ratios[0]"),
        ("eval", {"eval": {"detectors": "midpoint"}}, "eval.detectors"),
        ("session", {"session": {"segments": [{"channel": {"mu_b": "x"}}]}},
         "session.segments[0].channel.mu_b"),
        ("eval", {"channel": {"ratio": float("nan")}}, "channel.ratio"),
        ("eval", {"channel": {"mu0": 10 ** 400}}, "channel.mu0"),
        ("sweep", {"sweep": {"ratios": [0.1, float("inf")]}}, "sweep.ratios[1]"),
        ("session", {"session": {"segments": [{"channel": {"mu_b": float("-inf")}}]}},
         "session.segments[0].channel.mu_b"),
        ("session", {"session": {"initial_threshold": float("nan")}},
         "session.initial_threshold"),
        ("session", {"session": {"segments": [{}, 3]}}, "session.segments[1]"),
    ])
    def test_mistyped_value_exits_2(self, tmp_path, capsys, command, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"eval": {"blocks": 10}, "sweep": {"blocks": 10}} | doc))
        rc = main([command, "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"error: {key} must be" in capsys.readouterr().err

    def test_threads_option_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--threads", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        cfg = tmp_path / "c.json"
        cfg.write_text('{"threads": 1}')
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_adam_keys_and_sigma_flags_removed(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"train": {"adam_beta1": 0.9}}')
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config key: train.adam_beta1" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "--sigma0", "0.07"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, sub):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["analytic", "--out", str(blocker / sub)])
        assert rc == 2
        assert "cannot be a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, doc", [
        (["dtd", "--genie"], {"seed": -1}),
        (["session", "--genie"], {"seed": -1}),
        (["eval"], {"seed": -1}),
        (["dtd", "--genie"], {"dtd": {"blocks": -5}}),
        (["gen"], {"gen": {"blocks": -5}}),
    ])
    def test_negative_seed_or_block_count_exits_2(self, tmp_path, capsys, argv, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "must be" in capsys.readouterr().err

    # Ids name the command and the case index.
    @pytest.mark.parametrize("command, doc, flags", _RERUN_CASES,
                             ids=[f"{case[0]}-doc{i}" for i, case in enumerate(_RERUN_CASES)])
    def test_rerun_from_echo_is_byte_identical(self, tmp_path, capsys, rnn_weights,
                                               command, doc, flags):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        flags = [f.format(weights=rnn_weights) for f in flags]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([command, "--config", str(cfg), "--out", str(first)] + flags) == 0
        printed = capsys.readouterr().out.replace(str(first), "<out>")
        echo = first / "config-resolved.json"
        # The echo alone, without the flags, reproduces every file and the printout.
        assert main([command, "--config", str(echo), "--out", str(second)]) == 0
        assert capsys.readouterr().out.replace(str(second), "<out>") == printed
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # The echo names its command; another command refuses it.
        other = "gen" if command != "gen" else "eval"
        assert main([other, "--config", str(echo), "--out", str(tmp_path / "x")]) == 2

    def test_every_flag_lands_in_the_echo(self, tmp_path, rnn_weights):
        values = {"--seed": "7", "--ratio": "0.07", "--mu-b": "-0.1", "--sigma-b-over-mu1": "0.01",
                  "--mu0": "1.1", "--mu1": "2.1", "--weights": str(rnn_weights),
                  "--weights-mlp": str(rnn_weights), "--weights-rnn": str(rnn_weights)}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 8, "gen": {"blocks": 5},
            "train": {"epochs": 1, "train_blocks": 4, "validation_blocks": 4, "hidden": 4},
            "eval": {"blocks": 20, "detectors": ["midpoint"]},
            "dtd": {"blocks": 20},
            "sweep": {"ratios": [0.1], "blocks": 20, "detectors": ["midpoint"]},
            "session": {"total_blocks": 40, "m_blocks": 10,
                        "trigger": {"kind": "periodic", "period": 20}},
        }))
        for command, parser in _subparsers().items():
            out = tmp_path / command
            argv, expected = [command, "--config", str(cfg), "--out", str(out)], {}
            for action in parser._actions:
                if action.dest in _NOT_CONFIG_DESTS:
                    continue
                flag = action.option_strings[0]
                if action.nargs == 0:
                    argv.append(flag)
                    expected[action.dest] = True
                else:
                    argv += [flag, values[flag]]
                    expected[action.dest] = (action.type(values[flag]) if action.type
                                             else values[flag])
            assert main(argv) == 0, argv
            echoed = json.loads((out / "config-resolved.json").read_text())
            for key, value in expected.items():  # a flag's dest is the config key it sets
                node = echoed
                for part in key.split("."):
                    node = node[part]
                assert node == value, (command, key)

    @pytest.mark.parametrize("command, doc, key", [
        ("eval", {"channel": {"noise_model": "cauchy"}}, "channel.noise_model"),
        ("sweep", {"sweep": {"noise_model": "cauchy"}}, "sweep.noise_model"),
        ("session", {"session": {"segments": [{"start_block": 0,
                                               "channel": {"noise_model": "cauchy"}}]}},
         "session.segments[0].channel.noise_model"),
        ("train", {"train": {"kind": "cnn"}}, "train.kind"),
        ("session", {"session": {"trigger": {"kind": "sometimes", "period": 5}}},
         "session.trigger.kind"),
        ("eval", {"eval": {"detectors": ["midpoint", "bogus"]}}, "eval.detectors[1]"),
        ("sweep", {"sweep": {"detectors": ["bogus"]}}, "sweep.detectors[0]"),
    ])
    def test_unknown_noise_model_exits_2(self, tmp_path, capsys, command, doc, key):
        """A refused enumerated value exits 2 while the config is resolved, before --out exists."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        genie = ["--genie"] if command == "session" else []
        rc = main([command, "--config", str(bad), "--out", str(tmp_path / "o")] + genie)
        assert rc == 2
        assert f"{key} must be one of" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCliParserReuse:
    def test_back_to_back_calls_equal_fresh_calls(self, tmp_path, capsys, rnn_weights):
        """One process reuses one parser, and no flag carries over into the next call."""
        assert _build_parser() is _build_parser()
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 8, "channel": {"ratio": 0.1}, "dtd": {"blocks": 20},
            "session": {"total_blocks": 60, "m_blocks": 10,
                        "trigger": {"kind": "periodic", "period": 20}}}))
        runs = [["dtd", "--genie"], ["dtd", "--weights", str(rnn_weights)],
                ["session", "--genie", "--seed", "5"], ["session", "--weights", str(rnn_weights)],
                ["analytic", "--ratio", "0.07"], ["analytic"]]

        def run(argv, out):
            code = main(argv + ["--config", str(cfg), "--out", str(out)])
            printed = capsys.readouterr().out.replace(str(out), "<out>")
            return code, printed, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        reused = [run(argv, tmp_path / f"reused{i}") for i, argv in enumerate(runs)]
        fresh = []
        for i, argv in enumerate(runs):
            _build_parser.cache_clear()
            fresh.append(run(argv, tmp_path / f"fresh{i}"))
        assert reused == fresh
        assert all(code == 0 for code, _, _ in reused)
        echoes = [json.loads(files["config-resolved.json"]) for _, _, files in reused]
        assert echoes[1]["dtd"]["genie"] is False
        assert echoes[3]["session"]["genie"] is False and echoes[3]["seed"] == 12345
        assert echoes[4]["channel"]["ratio"] == 0.07 and echoes[5]["channel"]["ratio"] == 0.1


class TestCliImport:
    """Start-up cost, seen from a fresh interpreter that imports this package's source.

    ``import nvmdtd.cli`` measured 0.13-0.18 s without scipy and 0.31-0.34 s
    with ``scipy.special``; ``import scipy.stats`` alone measured 0.95 s
    (``python3 -X importtime``, shared 2-vCPU host).  Only commands that
    evaluate an analytic threshold or BER import scipy, on first use.
    """

    _SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

    @staticmethod
    def _fresh(probe: str, *args: str) -> str:
        src = str(Path(nvmdtd.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip().splitlines()[-1]

    def test_cli_import_leaves_scipy_stats_out(self):
        assert self._fresh("import sys, nvmdtd.cli; print('scipy.stats' in sys.modules)") \
            == "False"

    def test_cli_import_leaves_scipy_out(self):
        assert self._fresh(f"import sys, nvmdtd.cli; print({self._SCIPY_LOADED})") == "[]"

    def test_network_commands_run_without_scipy(self, tmp_path):
        weights = tmp_path / "train" / "weights-rnn.nvmw"
        configs = {
            "gen": {"gen": {"blocks": 5}},
            "train": {"train": {"kind": "rnn", "epochs": 1, "train_blocks": 8,
                                "validation_blocks": 4, "hidden": 4}},
            "session": {"session": {"total_blocks": 60, "m_blocks": 10, "weights": str(weights),
                                    "trigger": {"kind": "periodic", "period": 20}}},
            "eval": {"channel": {"ratio": 0.1},
                     "eval": {"blocks": 50, "calib_blocks": 20,
                              "detectors": ["rnn", "dtd-rnn", "genie"],
                              "weights": {"rnn": str(weights)}}},
        }
        runs = []
        for command, cfg in configs.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps({"n": 8} | cfg))
            runs.append([command, "--config", str(path), "--out", str(tmp_path / command)])
        probe = ("import json, sys; from nvmdtd.cli import main; "
                 "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
                 f"print(json.dumps([codes, {self._SCIPY_LOADED}]))")
        assert json.loads(self._fresh(probe, json.dumps(runs))) == [[0, 0, 0, 0], []]
        rows = list(csv.DictReader((tmp_path / "eval" / "eval.csv").read_text().splitlines()))
        assert [row["detector"] for row in rows] == ["rnn", "dtd-rnn", "genie"]


class TestCliAnalytic:
    def test_reference_threshold_printed(self, capsys):
        rc = main(["analytic", "--ratio", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines() if line.startswith("opt-no-offset"))
        assert "closed-form" in row
        assert abs(float(row.split()[2]) - 1.3368) < 5e-4

    def test_degenerate_offset_rows_agree(self, capsys):
        rc = main(["analytic", "--ratio", "0.05", "--mu-b", "-0.2"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        mean_row = next(l for l in lines if l.startswith("opt-mean-offset")).split()
        full_row = next(l for l in lines if l.startswith("opt-full")).split()
        assert abs(float(mean_row[2]) - float(full_row[2])) < 1e-8

    def test_invalid_params_exit_2(self, capsys):
        rc = main(["analytic", "--ratio", "-0.05"])
        assert rc == 2

    # Finite values whose reference math would underflow to a zero divisor or overflow:
    # outside the accepted channel range, so refused with exit 2, not computed.
    @pytest.mark.parametrize("channel", [
        {"ratio": 1e-300},
        {"mu_b": 1e300},
        {"mu0": 1e300, "mu1": 1.5e300},
        {"ratio": 1e-200, "noise_model": "centered-beta"},
    ])
    def test_arithmetic_failure_exits_3(self, tmp_path, capsys, channel):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"channel": channel}))
        assert main(["analytic", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a channel needs -1e+50 <= mu0 < mu1 <= 1e+50, sigmas in "
                              "[1e-50, 1e+50], |mu_b| <= 1e+50"), err
        assert "got the channel mu0=" in err, err
        assert err.count("\n") == 1, err

    # Centered-Beta channels whose Beta shape exceeds BETA_MAX_SHAPE (sigma below about
    # 3.36e-5): NaN BERs from 1e-155 down, overflow warnings from 1e-30, lost precision from 1e-8.
    # A sigma below 1e-50 is refused first, by the accepted channel range.
    @pytest.mark.parametrize("ratio", [1e-160, 1e-155, 1e-140, 1e-30, 1e-8, 1e-7, 1e-6, 3.3e-5])
    def test_beta_shape_beyond_the_largest_exits_2(self, tmp_path, capsys, ratio):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"channel": {"ratio": ratio, "noise_model": "centered-beta"}}))
        assert main(["analytic", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        limit = "at most 1e+08" if ratio >= 1e-50 else "sigmas in [1e-50, 1e+50]"
        assert limit in err and f"sigma0={ratio:g}," in err, err

    def test_beta_shape_just_inside_the_largest_runs(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"channel": {"ratio": 3.4e-5, "noise_model": "centered-beta"}}))
        assert main(["analytic", "--config", str(cfg)]) == 0
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("flags, key", [(["--ratio", "nan"], "channel.ratio"),
                                            (["--mu-b", "inf"], "channel.mu_b")])
    def test_non_finite_flag_exits_2(self, capsys, flags, key):
        assert main(["analytic"] + flags) == 2
        assert f"error: {key} must be a finite number" in capsys.readouterr().err

    # A flag sets one channel key; the file's noise model stays.
    @pytest.mark.parametrize("flags", [[], ["--ratio", "0.08"]])
    def test_sigma_override_keeps_noise_model(self, tmp_path, capsys, flags):
        full = {}
        for noise in ("centered-beta", "gaussian"):
            cfg = tmp_path / f"{noise}.json"
            cfg.write_text(json.dumps({"channel": {"noise_model": noise}}))
            assert main(["analytic", "--config", str(cfg)] + flags) == 0
            lines = capsys.readouterr().out.splitlines()
            full[noise] = next(l for l in lines if l.startswith("opt-full")).split()
        beta = {"noise_model": "centered-beta"} | ({"ratio": 0.08} if flags else {})
        params = channel_params(resolve_config({"channel": beta})["channel"])
        assert full["centered-beta"][2] == f"{optimal_threshold_bisection(params).r_th:.6f}"
        assert full["centered-beta"][2:] != full["gaussian"][2:]


class TestCliGenEvalDtd:
    def test_gen_writes_the_sampled_blocks(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 9, "gen": {"blocks": 7}}))
        out = tmp_path / "data"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        resolved = resolve_config({})
        params = channel_params(resolved["channel"])
        save_dataset(tmp_path / "expected.txt",
                     *sample_block_matrix(params, 9, 7, resolved["seed"]), params)
        assert (out / "dataset.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()

    def test_eval_csv(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 16,
            "channel": {"ratio": 0.1},
            "eval": {"blocks": 300, "detectors": ["midpoint", "opt-full"]},
        }))
        out = tmp_path / "ev"
        assert main(["eval", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "ratio,mu_b,sigma_b_over_mu1,noise_model,detector,r_th,errors,bits,ber,ci"
        assert len(lines) == 3

    def test_quantizer_bits_above_cap_exits_2(self, tmp_path, capsys, rnn_weights):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 8, "eval": {
            "blocks": 10, "detectors": ["rnn"], "quantizer": {"bits": 1100},
            "weights": {"rnn": str(rnn_weights)}}}))
        assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / "ev")]) == 2
        assert "quantizer bits must be in [1, 52], got 1100" in capsys.readouterr().err

    def test_dtd_genie_matches_optimum(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "channel": {"ratio": 0.1, "mu_b": -0.2, "sigma_b_over_mu1": 0.04},
            "dtd": {"blocks": 1000},
        }))
        out = tmp_path / "dtd"
        assert main(["dtd", "--config", str(cfg), "--out", str(out), "--genie"]) == 0
        doc = json.loads((out / "dtd.json").read_text())
        assert abs(doc["r_adj"] - doc["reference_optimum"]) < 0.02

    def test_dtd_genie_on_beta_writes_reference_optimum(self, tmp_path):
        channel = {"ratio": 0.1, "mu_b": -0.2, "sigma_b_over_mu1": 0.04,
                   "noise_model": "centered-beta"}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"channel": channel, "dtd": {"blocks": 1000}}))
        out = tmp_path / "dtd"
        assert main(["dtd", "--config", str(cfg), "--out", str(out), "--genie"]) == 0
        doc = json.loads((out / "dtd.json").read_text())
        params = channel_params(resolve_config({"channel": channel})["channel"])
        assert doc["reference_optimum"] == optimal_threshold_bisection(params).r_th
        assert abs(doc["r_adj"] - doc["reference_optimum"]) < 0.02

    def test_dtd_unbounded_interval_is_strict_json(self, tmp_path, rnn_weights):
        """An unbounded side of the tie interval is written as null, not as -Infinity."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 8, "dtd": {"blocks": 10}}))
        out = tmp_path / "dtd"
        assert main(["dtd", "--config", str(cfg), "--out", str(out),
                     "--weights", str(rnn_weights)]) == 0

        def refuse(name):
            raise ValueError(f"dtd.json holds {name}")

        doc = json.loads((out / "dtd.json").read_text(), parse_constant=refuse)
        assert doc["interval"] == [None, doc["r_adj"]]  # the reads tie below the lowest

    def test_dtd_without_labels_exits_4(self, tmp_path):
        assert main(["dtd", "--out", str(tmp_path / "x")]) == 4

    def test_missing_weight_file_exits_4(self, tmp_path):
        rc = main(["dtd", "--out", str(tmp_path / "x"),
                   "--weights", str(tmp_path / "missing.nvmw")])
        assert rc == 4

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_weight_file_of_the_other_kind_exits_4(self, tmp_path, capsys, rnn_weights, command):
        """An RNN weight file given for the mlp rows is refused, not scored as the mlp."""
        section = {"blocks": 10, "detectors": ["midpoint", "mlp"]}
        flags = []
        if command == "eval":
            section["weights"] = {"mlp": str(rnn_weights)}
        else:
            flags = ["--weights-mlp", str(rnn_weights)]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 8, command: section}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)] + flags) == 4
        assert capsys.readouterr().err == (f"error: {command}.weights.mlp is {rnn_weights}, "
                                           "whose network is of kind rnn, not mlp\n")
        assert not out.exists()


# Configs that resolve but are refused once their command runs, after --out exists.
_REFUSED_RUNS = [
    pytest.param("session", {"session": {"segments": []}}, id="session.segments"),
    pytest.param("session", {"session": {"total_blocks": 0}}, id="session.total_blocks"),
    pytest.param("session", {"session": {"trigger": {"kind": "periodic", "period": 0}}},
                 id="session.trigger.period"),
    pytest.param("session", {"session": {"m_blocks": 0}}, id="session.m_blocks"),
    pytest.param("eval", {"eval": {"quantizer": {"bits": 0}}}, id="eval.quantizer.bits"),
    pytest.param("eval", {"eval": {"blocks": 0}}, id="eval.blocks"),
    pytest.param("eval", {"eval": {"calib_blocks": 0, "detectors": ["dtd-rnn"]}},
                 id="eval.calib_blocks"),
    pytest.param("dtd", {"dtd": {"blocks": 0}}, id="dtd.blocks"),
    pytest.param("gen", {"gen": {"blocks": 0}}, id="gen.blocks"),
    pytest.param("train", {"train": {"epochs": 0}}, id="train.epochs"),
    pytest.param("train", {"train": {"learning_rate": 0}}, id="train.learning_rate"),
    pytest.param("gen", {"channel": {"ratio": -1}}, id="channel.ratio"),
    # Values beyond the accepted channel range, whose reads would overflow to inf.
    pytest.param("eval", {"channel": {"mu0": 1e308, "mu1": 1.5e308, "ratio": 0.5}},
                 id="channel.mu0"),
    pytest.param("dtd", {"channel": {"mu_b": 1e308}}, id="channel.mu_b"),
    pytest.param("eval", {"eval": {"quantizer": {"bits": 3, "lo": -1e308, "hi": 1e308}}},
                 id="eval.quantizer.lo"),
]


class TestCliRefusedRun:
    @pytest.mark.parametrize("command, doc", _REFUSED_RUNS)
    def test_refused_run_leaves_no_out(self, tmp_path, capsys, command, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 8} | doc))
        out = tmp_path / "o"
        genie = ["--genie"] if command in ("dtd", "session") else []
        assert main([command, "--config", str(cfg), "--out", str(out)] + genie) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_refused_run_keeps_an_out_it_did_not_create(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gen": {"blocks": 0}}))
        empty, full = tmp_path / "empty", tmp_path / "full"
        empty.mkdir()
        full.mkdir()
        (full / "keep.txt").write_text("x")
        for out in (empty, full):
            assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 2
        assert empty.is_dir() and (full / "keep.txt").read_text() == "x"

    def test_refused_run_removes_the_parents_it_created(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gen": {"blocks": 0}}))
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--config", str(cfg), "--out", "lo/a/b/c"]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x" / "y")]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_refused_run_keeps_the_parents_that_existed(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"gen": {"blocks": 0}}))
        (tmp_path / "lo" / "a").mkdir(parents=True)
        assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "lo/a/b/c")]) == 2
        assert [p.name for p in (tmp_path / "lo").rglob("*")] == ["a"]


class TestCliSweepSession:
    def test_sweep_with_missing_assets_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 8,
            "sweep": {"ratios": [0.1], "detectors": ["midpoint", "rnn"], "blocks": 100},
        }))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: sweep.weights.rnn is not set; the rnn row needs it\n")
        assert not out.exists()

    # The first row that needs an unset network names it; a set one is loaded first.
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize("detectors, weights, key, row", [
        (["midpoint", "rnn", "dtd-mlp"], {}, "rnn", "rnn"),
        (["dtd-rnn", "rnn"], {}, "rnn", "dtd-rnn"),
        (["mlp"], {}, "mlp", "mlp"),
        (["genie", "dtd-mlp", "rnn"], {"rnn": "rnn"}, "mlp", "dtd-mlp"),
        (["opt-full", "dtd-mlp", "rnn"], {"mlp": "mlp"}, "rnn", "rnn"),
    ], ids=["rnn", "dtd-rnn", "mlp", "dtd-mlp", "rnn-after-dtd-mlp"])
    def test_network_row_without_weights_exits_4_before_any_block(
            self, tmp_path, capsys, monkeypatch, command, detectors, weights, key, row):
        def never(*args, **kwargs):
            raise AssertionError("a block was drawn before the networks were loaded")

        monkeypatch.setattr(harness, "sample_block_matrix", never)
        stored = Path(__file__).resolve().parents[1] / "perfbench" / "weights"
        section = {"blocks": 20, "detectors": detectors,
                   "weights": {k: str(stored / f"weights-{v}.nvmw") for k, v in weights.items()}}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({command: section}))
        out = tmp_path / "a" / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {command}.weights.{key} is not set; the {row} row needs it\n")
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("command, key, flag", [
        ("eval", "eval.weights.mlp", None),
        ("sweep", "sweep.weights.mlp", "--weights-mlp"),
        ("dtd", "dtd.weights", "--weights"),
        ("session", "session.weights", "--weights"),
    ], ids=["eval", "sweep", "dtd", "session"])
    def test_network_of_another_width_exits_4_before_any_block(
            self, tmp_path, capsys, monkeypatch, command, key, flag):
        """The stored MLP reads blocks of 71 bits; a run at n = 8 refuses it before drawing."""
        def never(*args, **kwargs):
            raise AssertionError("a block was drawn before the networks were loaded")

        monkeypatch.setattr(harness, "sample_block_matrix", never)
        stored = Path(__file__).resolve().parents[1] / "perfbench" / "weights"
        mlp = str(stored / "weights-mlp.nvmw")
        section = {"total_blocks": 40} if command == "session" else {"blocks": 5}
        if command in ("eval", "sweep"):
            section["detectors"] = ["midpoint", "dtd-mlp"]
        if command == "eval":
            section["weights"] = {"mlp": mlp}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 8, command: section}))
        out = tmp_path / "a" / "o"
        argv = [command, "--config", str(cfg), "--out", str(out)] + ([flag, mlp] if flag else [])
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            f"error: {key} is {mlp}, whose network reads blocks of 71 bits, not the run's n = 8\n")
        assert not (tmp_path / "a").exists()

    def test_eval_and_sweep_honour_mu0_mu1(self, tmp_path, capsys):
        detectors = ["midpoint", "opt-no-offset", "opt-mean-offset", "opt-full"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 16, "channel": {"mu0": 1.5, "mu1": 3.0, "ratio": 0.1},
            "eval": {"blocks": 200, "detectors": detectors},
            "sweep": {"ratios": [0.1], "blocks": 200, "detectors": detectors},
        }))
        assert main(["analytic", "--config", str(cfg)]) == 0
        printed = {line.split()[0]: line.split()[2]
                   for line in capsys.readouterr().out.splitlines()[2:]}
        tables = {}
        for command in ("eval", "sweep"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
            tables[command] = (out / f"{command}.csv").read_text()
        # The sweep's one point is the eval channel: the same rows on the same blocks.
        assert tables["sweep"] == tables["eval"]
        rows = {row["detector"]: row for row in csv.DictReader(io.StringIO(tables["eval"]))}
        assert float(rows["midpoint"]["r_th"]) == 2.25
        for name in detectors[1:]:
            assert f"{float(rows[name]['r_th']):.6f}" == printed[name], name

    @pytest.mark.parametrize("ratios, message", [([0.1, -0.1], "variation ratio must be positive"),
                                                 ([], "non-empty")])
    def test_bad_grid_exits_2_before_any_simulation(self, tmp_path, capsys, monkeypatch,
                                                    ratios, message):
        def never(*args, **kwargs):
            raise AssertionError("sampled before every point was built")

        monkeypatch.setattr(harness, "sample_block_matrix", never)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sweep": {"ratios": ratios, "blocks": 10}}))
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
                   "--weights-rnn", str(tmp_path / "missing.nvmw")])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_sweep_echoes_weight_flags(self, tmp_path, trained_tiny_mlp):
        params, model = trained_tiny_mlp
        weights = tmp_path / "weights-mlp.nvmw"
        save_weights(model, weights, seed=1)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 8,
            "sweep": {"ratios": [0.02], "detectors": ["mlp"], "blocks": 50},
        }))
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--weights-mlp", str(weights)]) == 0
        echoed = json.loads((out / "config-resolved.json").read_text())
        assert echoed["sweep"]["weights"] == {"mlp": str(weights), "rnn": None}

    def test_session_single_jump(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n": 16,
            "session": {
                "segments": [
                    {"start_block": 0, "channel": {"ratio": 0.1}},
                    {"start_block": 200, "channel": {"ratio": 0.1, "mu_b": -0.3}},
                ],
                "total_blocks": 1000,
                "trigger": {"kind": "periodic", "period": 100},
                "m_blocks": 100,
            },
        }))
        out = tmp_path / "se"
        assert main(["session", "--config", str(cfg), "--out", str(out), "--genie"]) == 0
        rows = (out / "session.csv").read_text().splitlines()
        assert rows[0].startswith("segment,start_block")
        assert len(rows) == 3
        summary = json.loads((out / "session.json").read_text())
        assert summary["triggers_total"] >= 1

    @pytest.mark.parametrize("m_blocks", [0, -3])
    def test_session_needs_calibration_blocks(self, tmp_path, capsys, monkeypatch, m_blocks):
        def never(*args, **kwargs):
            raise AssertionError("sampled before checking m_blocks")

        monkeypatch.setattr(harness, "sample_block_matrix", never)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"session": {
            "m_blocks": m_blocks, "total_blocks": 300,
            "trigger": {"kind": "periodic", "period": 100}}}))
        rc = main(["session", "--genie", "--config", str(cfg), "--out", str(tmp_path / "se")])
        assert rc == 2
        assert "m_blocks" in capsys.readouterr().err

    def test_train_then_eval_with_weights(self, tmp_path, tiny_train_config):
        out = tmp_path / "tr"
        assert main(["train", "--config", str(tiny_train_config), "--out", str(out)]) == 0
        weights = out / "weights-rnn.nvmw"
        meta = read_weight_manifest(weights)
        assert meta["kind"] == "rnn"
        evcfg = tmp_path / "ev.json"
        evcfg.write_text(json.dumps({
            "n": 12,
            "channel": {"ratio": 0.05},
            "eval": {"blocks": 200,
                     "detectors": ["rnn", "dtd-rnn", "opt-full"],
                     "weights": {"rnn": str(weights)}},
        }))
        out2 = tmp_path / "ev"
        assert main(["eval", "--config", str(evcfg), "--out", str(out2)]) == 0
        lines = (out2 / "eval.csv").read_text().splitlines()
        assert len(lines) == 4
