"""Command-line surface: exit codes, resolved-config echoes, re-runnability.

Every subcommand is driven through ``main(argv)`` in-process.  The inputs
these tests share are criterion 8's sweep (``conftest.py``), read and never
written; the byte-identity re-runs live in the acceptance suite.
"""

import argparse
import base64
import dataclasses
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import crossdial.cli as cli
import crossdial.experiment as experiment
from crossdial.cli import main
from crossdial.corpus import Corpus, DialoguePair, save_pairs
from crossdial.humaneval import CHOICES
from crossdial.kvconfig import config_schema, load_kv, write_kv
from crossdial.model import OptimizerConfig
from helpers import TINY_OPT, TINY_STUDY, set_args


@pytest.fixture
def data_dir(cli_sweep):
    return cli_sweep.root / "data"


@pytest.fixture
def models(cli_sweep):
    return {name: cli_sweep.root / f"{name}.model" for name in ("pre", "src", "adapted")}


@pytest.fixture
def tiny_study(cli_sweep):
    return cli_sweep.root / "study"


def _err_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return err[-1] if err else ""


# -- exit codes and error lines ------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    assert main(["bogus-command"]) == 2


@pytest.mark.parametrize("argv, named", [
    pytest.param(["sample-fewshot", "--k", "abc"], "'k'", id="bad-int"),
    pytest.param(["format", "--layout", "fancy"], "--layout", id="bad-layout"),
    pytest.param(["gen-synthetic", "--bogus", "1"], "--bogus", id="unknown-flag"),
    pytest.param(["bogus-command"], "bogus-command", id="unknown-subcommand"),
    pytest.param(["pretrain", "--mean-span-length", "3"], "--mean-span-length", id="removed-span-length-flag"),
    pytest.param(["evaluate", "--tokenizer", "13a"], "--tokenizer", id="removed-tokenizer-flag"),
    *(pytest.param([name, "--eval-every", "5"], "--eval-every", id=f"removed-eval-every-flag-{name}")
      for name in ("pretrain", "train", "adapt")),
    *(pytest.param([name, "--template", "tpl.cfg"], "--template", id=f"removed-template-flag-{name}")
      for name in ("format", "pretrain", "train", "adapt", "generate")),
    pytest.param(["pretrain", "--corruption-rate", "0.15"], "--corruption-rate", id="removed-corruption-rate-flag"),
    pytest.param(["study", "--spec", "study.cfg"], "--spec", id="removed-spec-flag"),
    pytest.param(["evaluate", "--smoothing-epsilon", "0.01"], "--smoothing-epsilon",
                 id="removed-smoothing-epsilon-flag"),
    pytest.param(["gen-synthetic", "--out", "g", "--set", "noequals"],
                 "error:config: --set:1: expected 'key = value', got 'noequals'", id="set-without-equals"),
    pytest.param(["gen-synthetic", "--out", "g", "--set", "seed=1", "--set", "seed=2"],
                 "error:config: --set:2: duplicate key 'seed'", id="set-duplicate-key"),
    pytest.param(["gen-synthetic", "--out", "g", "--set", "=5"], "error:config: --set:1: empty key", id="set-empty-key"),
    pytest.param([], "SUBCOMMAND", id="missing-subcommand"),
])
def test_usage_error_prints_one_config_line(argv, named, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:config: ") and named in err


def test_missing_required_key_exits_2(capsys):
    assert main(["gen-synthetic"]) == 2
    line = _err_line(capsys)
    assert "error:config" in line and "'out'" in line


def test_missing_required_key_names_it(capsys):
    assert main(["interleave", "--aux", "a.jsonl", "--tgt", "b.jsonl"]) == 2
    assert "missing required key 'out'" in _err_line(capsys)


def test_unknown_set_key_named(capsys, tmp_path):
    assert main(["gen-synthetic", "--out", str(tmp_path / "x"), "--set", "bogus_key=3"]) == 2
    line = _err_line(capsys)
    assert "error:config" in line and "bogus_key" in line


def test_bad_value_exits_2(capsys, tmp_path):
    assert main(["gen-synthetic", "--out", str(tmp_path / "x"), "--set", "vocab_size=abc"]) == 2
    line = _err_line(capsys)
    assert line.startswith("error:config") and "vocab_size" in line


def test_set_without_equals_rejected(capsys, tmp_path):
    assert main(["gen-synthetic", "--out", str(tmp_path / "x"), "--set", "noequals"]) == 2
    assert "'key = value'" in _err_line(capsys)


def test_set_duplicate_key_rejected(capsys, tmp_path):
    assert main(["gen-synthetic", "--out", str(tmp_path / "x"), "--set", "seed=1", "--set", "seed=2"]) == 2
    assert "duplicate" in _err_line(capsys)


def test_missing_input_file_exits_1(capsys, tmp_path):
    assert main(["sample-fewshot", "--in", str(tmp_path / "nope.jsonl"), "--k", "2",
                 "--out", str(tmp_path / "o.jsonl")]) == 1
    assert _err_line(capsys).startswith("error:")


# Every input file is read by one function: whichever flag names it, a file
# that is missing, a directory, or not UTF-8 is one `error:io:` line, exit 1.
# A file whose text its reader refuses is one line of the reader's category.
_READERS = {
    "corpus": lambda bad, d: ["sample-fewshot", "--in", bad, "--k", "2", "--out", "o.jsonl"],
    "config": lambda bad, d: ["gen-synthetic", "--out", "g", "--config", bad],
    "hypotheses": lambda bad, d: ["evaluate", "--hyp", bad, "--ref", f"{d}/tgt_test.jsonl", "--report", "r.jsonl"],
    "vocab": lambda bad, d: ["evaluate", "--hyp", f"{d}/tgt_vocab.txt", "--ref", f"{d}/tgt_test.jsonl",
                             "--report", "r.jsonl", "--target-vocab", bad],
    "sheet": lambda bad, d: ["humaneval-aggregate", "--sheet", bad, "--key", "key.tsv"],
    "model": lambda bad, d: ["generate", "--model", bad, "--in", f"{d}/tgt_test.jsonl", "--out", "h.txt"],
}
_BAD_FILES = {
    "missing": lambda path: None,
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b"\xff"),
}


_RECORD = '{{"context": "c", "response": "r", "lang": "{}"}}\n'
# case -> (argv, file text, error category, the end of the error line)
_REFUSED_TEXTS = {
    "corpus-not-object": (_READERS["corpus"], "[1]\n", "corpus", ":1: malformed record: not an object"),
    "corpus-unknown-language": (_READERS["corpus"], _RECORD.format("zz"), "corpus", ":1: unknown language code 'zz'"),
    "corpus-mixed-language": (_READERS["corpus"], _RECORD.format("aa") + _RECORD.format("ba"), "corpus",
                              ": expected a single language, found ['aa', 'ba']"),
    "sheet-empty": (_READERS["sheet"], "", "humaneval", ": empty file"),
    "key-three-systems": (lambda bad, d: ["humaneval-aggregate", "--sheet", f"{d}/../done.tsv", "--key", bad],
                          "id\tleft_system\tright_system\n1\tA\tB\n2\tA\tC\n", "humaneval",
                          ": expected exactly 2 systems, found ['A', 'B', 'C']"),
}


@pytest.mark.parametrize("argv, make_bad, prefix, tail", [
    *(pytest.param(argv, make_bad, "error:io: ", "", id=f"{reader}-{name}")
      for reader, argv in _READERS.items() for name, make_bad in _BAD_FILES.items()),
    *(pytest.param(argv, lambda path, text=text: path.write_text(text), f"error:{category}: ", tail, id=name)
      for name, (argv, text, category, tail) in _REFUSED_TEXTS.items()),
])
def test_unreadable_input_file_is_one_io_line(argv, make_bad, prefix, tail, data_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "key.tsv").write_text("id\tleft_system\tright_system\n1\tFS-XLT\tFS-XLT_pmpt\n")  # the sheet's key
    bad = tmp_path / "bad"
    make_bad(bad)
    assert main(argv(str(bad), data_dir)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix) and str(bad) in err[0] and err[0].endswith(tail), err


def test_leading_bom_reads_as_text(data_dir, tmp_path, monkeypatch):
    # some editors save UTF-8 with a byte-order mark; it is not part of the first key or record
    monkeypatch.chdir(tmp_path)
    corpus = (data_dir / "aux_train.jsonl").read_bytes()
    for name, head in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / f"{name}.jsonl").write_bytes(head + corpus)
        (tmp_path / f"{name}.cfg").write_bytes(head + b"k = 5\nseed = 2\n")
        assert main(["sample-fewshot", "--config", f"{name}.cfg", "--in", f"{name}.jsonl", "--out", f"{name}.out"]) == 0
    assert (tmp_path / "bom.out").read_bytes() == (tmp_path / "plain.out").read_bytes()


def _layout_entry(payload, name):
    return next(entry for entry in payload["layout"] if entry[0] == name)


def _shape_edited(payload):
    entry = _layout_entry(payload, "b_out")
    entry[1] = [1] + entry[1]  # the same number of values in another shape


def _renamed(payload):
    _layout_entry(payload, "b_out")[0] = "b_final"


def _resized(payload, values):
    vector = np.frombuffer(base64.b64decode(payload["params"]), dtype="<f8")
    payload["params"] = base64.b64encode(values(vector).tobytes()).decode("ascii")


def _one_short(payload):
    _resized(payload, lambda vector: vector[:-1])


def _one_long(payload):
    _resized(payload, lambda vector: np.append(vector, 0.0))


def _bad_base64(payload):
    payload["params"] = "not base64!"


def _v1_format(payload):
    # the format before this one: a {shape, data} entry per parameter and no layout
    vector = np.frombuffer(base64.b64decode(payload["params"]), dtype="<f8")
    payload["format"], payload["params"], offset = "attentive-seq2seq-v1", {}, 0
    for name, shape in payload.pop("layout"):
        size = int(np.prod(shape))
        data = base64.b64encode(vector[offset : offset + size].tobytes()).decode("ascii")
        payload["params"][name], offset = {"shape": shape, "data": data}, offset + size


def _no_vocabulary(payload):
    del payload["vocabulary"]


@pytest.mark.parametrize("corrupt, named", [
    (_shape_edited, "'b_out'"),
    (_renamed, "'b_final'"),
    (_one_short, "does not fit"),
    (_one_long, "does not fit"),
    (_bad_base64, "base64"),
    (_v1_format, "not a attentive-seq2seq-v2 file"),
    (_no_vocabulary, "'vocabulary'"),
    (None, "not valid JSON"),  # truncated file
])
def test_malformed_model_file_exits_1_with_one_error_line(corrupt, named, models, data_dir, tmp_path, capsys):
    text = models["adapted"].read_text(encoding="utf-8")
    if corrupt is None:
        text = text[: len(text) // 2]
    else:
        payload = json.loads(text)
        corrupt(payload)
        text = json.dumps(payload)
    bad = tmp_path / "bad.model"
    bad.write_text(text, encoding="utf-8")
    assert main(["generate", "--model", str(bad), "--in", str(data_dir / "tgt_test.jsonl"),
                 "--out", str(tmp_path / "h.txt")]) == 1
    line = _err_line(capsys)
    assert line.startswith(f"error:model: {bad}: ")
    assert named in line


def test_interleave_domain_error_exits_1(capsys, data_dir, tmp_path):
    # target stream larger than auxiliary: block size would be zero
    assert main(["interleave", "--aux", str(data_dir / "tgt_train.jsonl"),
                 "--tgt", str(data_dir / "aux_train.jsonl"),
                 "--out", str(tmp_path / "m.jsonl")]) == 1
    assert _err_line(capsys).startswith("error:interleave")


def test_output_parent_dirs_created(data_dir, tmp_path):
    out = tmp_path / "deep" / "nested" / "few.jsonl"
    assert main(["sample-fewshot", "--in", str(data_dir / "aux_train.jsonl"),
                 "--k", "2", "--out", str(out)]) == 0
    assert out.exists() and out.with_suffix(".jsonl.cfg").exists()


def test_bad_input_leaves_no_output_dir(tmp_path):
    out = tmp_path / "never" / "few.jsonl"
    assert main(["sample-fewshot", "--in", str(tmp_path / "nope.jsonl"),
                 "--k", "2", "--out", str(out)]) == 1
    assert not out.parent.exists()


def test_echo_from_other_command_rejected(capsys, data_dir, tmp_path):
    out = tmp_path / "few.jsonl"
    assert main(["sample-fewshot", "--in", str(data_dir / "tgt_train.jsonl"), "--k", "2",
                 "--out", str(out)]) == 0
    assert main(["interleave", "--config", str(out) + ".cfg"]) == 2
    assert "written by 'sample-fewshot'" in _err_line(capsys)


def test_humaneval_cross_family_exits_1(capsys, data_dir, tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("svar\n" * 8)
    rc = main(["humaneval-export", "--hyp-a", str(hyp), "--hyp-b", str(hyp),
               "--system-a", "FS-XLT", "--system-b", "MTL",
               "--test", str(data_dir / "tgt_test.jsonl"),
               "--sheet", str(tmp_path / "s.tsv"), "--key", str(tmp_path / "k.tsv"), "--n", "4"])
    assert rc == 1
    assert _err_line(capsys).startswith("error:humaneval")


# -- flag surface ----------------------------------------------------------------
# Each subcommand's flags as (option strings, dest, nargs, action); every
# subcommand also takes -h/--help and --set.

_COMMON_FLAGS = {("-h --help", "help", 0, "help"), ("--set", "set", None, "append")}
_CONFIG = ("--config", "config", None, "store")

FLAG_SURFACE = {
    "gen-synthetic": [
        _CONFIG,
        ("--out", "out", None, "store"),
        ("--seed", "seed", None, "store"),
    ],
    "sample-fewshot": [
        _CONFIG,
        ("--in", "in", None, "store"),
        ("--k", "k", None, "store"),
        ("--seed", "seed", None, "store"),
        ("--out", "out", None, "store"),
    ],
    "interleave": [
        _CONFIG,
        ("--aux", "aux", None, "store"),
        ("--tgt", "tgt", None, "store"),
        ("--out", "out", None, "store"),
    ],
    "format": [
        _CONFIG,
        ("--in", "in", None, "store"),
        ("--out", "out", None, "store"),
        ("--prompted", "prompted", 0, "store_true"),
    ],
    "pretrain": [
        _CONFIG,
        ("--data", "data", "+", "store"),
        ("--out", "out", None, "store"),
        ("--seed", "seed", None, "store"),
        ("--embedding-size", "embedding_size", None, "store"),
        ("--hidden-size", "hidden_size", None, "store"),
    ],
    **{
        name: [
            _CONFIG,
            ("--model", "model", None, "store"),
            ("--train", "train", None, "store"),
            ("--valid", "valid", None, "store"),
            ("--out", "out", None, "store"),
            ("--prompted", "prompted", 0, "store_true"),
        ]
        for name in ("train", "adapt")
    },
    "generate": [
        _CONFIG,
        ("--model", "model", None, "store"),
        ("--in", "in", None, "store"),
        ("--out", "out", None, "store"),
        ("--raw-out", "raw_out", None, "store"),
        ("--prompted", "prompted", 0, "store_true"),
        ("--max-length", "max_length", None, "store"),
    ],
    "evaluate": [
        _CONFIG,
        ("--hyp", "hyp", None, "store"),
        ("--ref", "ref", None, "store"),
        ("--report", "report", None, "store"),
        ("--system", "system", None, "store"),
        ("--target-vocab", "target_vocab", None, "store"),
    ],
    "study": [
        _CONFIG,
        ("--seeds", "seeds", None, "store"),
        ("--out", "out", None, "store"),
    ],
    "humaneval-export": [
        _CONFIG,
        ("--hyp-a", "hyp_a", None, "store"),
        ("--hyp-b", "hyp_b", None, "store"),
        ("--system-a", "system_a", None, "store"),
        ("--system-b", "system_b", None, "store"),
        ("--test", "test", None, "store"),
        ("--sheet", "sheet", None, "store"),
        ("--key", "key", None, "store"),
        ("--n", "n", None, "store"),
        ("--seed", "seed", None, "store"),
        ("--allow-cross-family", "allow_cross_family", 0, "store_true"),
    ],
    "humaneval-aggregate": [
        _CONFIG,
        ("--sheet", "sheet", "+", "store"),
        ("--key", "key", None, "store"),
        ("--out", "out", None, "store"),
        ("--language", "language", None, "store"),
    ],
}


def _flag_set(parser: argparse.ArgumentParser) -> set[tuple]:
    def action(a) -> str:  # _StoreTrueAction -> store_true
        return re.sub(r"(?<!^)(?=[A-Z])", "_", type(a).__name__.strip("_").removesuffix("Action")).lower()

    return {(" ".join(a.option_strings), a.dest, a.nargs, action(a)) for a in parser._actions if a.option_strings}


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_top_level_flags_and_subcommands_pinned():
    parser = cli.build_parser()
    assert _flag_set(parser) == {("-h --help", "help", 0, "help"), ("-v --verbose", "verbose", 0, "store_true")}
    assert sorted(_subparsers(parser)) == sorted(FLAG_SURFACE)


@pytest.mark.parametrize("name", sorted(FLAG_SURFACE))
def test_subcommand_flags_pinned(name, capsys):
    assert _flag_set(_subparsers(cli.build_parser())[name]) == _COMMON_FLAGS | set(FLAG_SURFACE[name])
    assert main([name, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: crossdial {name}")


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    """Every ``crossdial ...`` command in README's sh fences, continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [" ".join(line.split()) for line in lines if line.strip().startswith("crossdial ")]


def test_readme_names_commands():
    assert len(_readme_commands()) >= 10


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])


# the keys that name an input file; "out", "raw_out" and "report" name outputs,
# and humaneval-export writes its "sheet" and "key"
_INPUT_KEYS = ("config", "in", "aux", "tgt", "data", "model", "train", "valid", "hyp", "ref", "target_vocab",
               "hyp_a", "hyp_b", "test", "sheet", "key")


# the echo of a directory output lies inside it; every other echo is "<first output>.cfg"
_DIRECTORY_ECHOES = {"gen-synthetic": "synthetic.resolved.cfg", "study": "study.resolved.cfg"}


def test_readme_commands_read_only_what_earlier_commands_wrote(tmp_path, monkeypatch):
    # A command may write a path an earlier command wrote only by re-running that
    # command's settings: the same subcommand and resolved keys.  Each echo is
    # written here, so a --config echo resolves to its writer's keys.
    monkeypatch.chdir(tmp_path)
    writers: dict[str, tuple[str, dict]] = {}  # path -> (subcommand, resolved keys) of its writer
    synthetic_dirs: set[str] = set()
    for command in _readme_commands():
        args = cli.build_parser().parse_args(shlex.split(command, comments=True)[1:])
        entries = {**vars(args), **(dict(item.split("=", 1) for item in args.set or ()))}
        paths = {key: value if isinstance(value, list) else [value] for key, value in entries.items() if value}
        inputs = [path for key in _INPUT_KEYS if args.command != "humaneval-export" or key not in ("sheet", "key")
                  for path in paths.get(key, [])]
        unwritten = [path for path in inputs if path not in writers and os.path.dirname(path) not in synthetic_dirs]
        assert not unwritten, f"{command!r} reads {unwritten}, which no earlier README command writes"
        resolved = cli._resolve(args, args.command, cli._COMMANDS[args.command][2])
        outputs = [path for key in ("out", "raw_out", "report") for path in paths.get(key, [])]
        if args.command == "humaneval-export":
            outputs += paths["sheet"] + paths["key"]
        if args.command == "gen-synthetic":
            synthetic_dirs.update(outputs)
        for path in (path + suffix for path in outputs for suffix in ("", ".cfg", ".history")):
            writer = writers.setdefault(path, (args.command, resolved))
            assert writer == (args.command, resolved), f"{command!r} overwrites {path} with other settings"
        if outputs:
            name = _DIRECTORY_ECHOES.get(args.command)
            write_kv(os.path.join(outputs[0], name) if name else outputs[0] + ".cfg",
                     {"command": args.command, **resolved})


# -- resolved-config echoes ------------------------------------------------------


def test_precedence_default_config_set_flag(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(f"out = {tmp_path / 'a'}\nseed = 1\n")
    assert main(["gen-synthetic", "--config", str(cfg)]) == 0
    assert load_kv(tmp_path / "a" / "synthetic.resolved.cfg")["seed"] == "1"
    assert main(["gen-synthetic", "--config", str(cfg), "--set", "seed=2"]) == 0
    assert load_kv(tmp_path / "a" / "synthetic.resolved.cfg")["seed"] == "2"
    assert main(["gen-synthetic", "--config", str(cfg), "--set", "seed=2", "--seed", "7"]) == 0
    echo = load_kv(tmp_path / "a" / "synthetic.resolved.cfg")
    assert echo["seed"] == "7"
    # unset keys resolved to their defaults in the echo
    assert echo["n_train_aux"] == "256"


def test_training_stages_default_to_study_budgets(data_dir, tmp_path):
    pre, src, adapted = tmp_path / "pre.model", tmp_path / "src.model", tmp_path / "adapted.model"
    assert main(["pretrain", "--data", str(data_dir / "aux_train.jsonl"), str(data_dir / "tgt_valid.jsonl"),
                 "--out", str(pre), "--embedding-size", "12", "--hidden-size", "16"]) == 0
    assert main(["train", "--model", str(pre), "--train", str(data_dir / "aux_train.jsonl"),
                 "--valid", str(data_dir / "aux_valid.jsonl"), "--out", str(src)]) == 0
    assert main(["adapt", "--model", str(src), "--train", str(data_dir / "tgt_train.jsonl"),
                 "--valid", str(data_dir / "tgt_valid.jsonl"), "--out", str(adapted)]) == 0
    for model, budget in ((pre, experiment.STUDY_PRETRAIN), (src, experiment.STUDY_TRAIN),
                          (adapted, experiment.STUDY_ADAPT)):
        expected = {key: str(value) for key, (_, value) in config_schema(budget).items()}
        echo = load_kv(str(model) + ".cfg")
        assert {key: echo[key] for key in expected} == expected, model.name


# -- pipeline outputs ------------------------------------------------------------


def test_history_records_selection(models):
    lines = (models["pre"].parent / "pre.model.history").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert all("step" in row and "valid_loss" in row for row in rows[:-1])
    assert rows[-1]["selected_valid_loss"] == min(row["valid_loss"] for row in rows[:-1])


def test_generate_raw_output(cli_sweep):
    raw, out = (cli_sweep.root / name for name in ("raw.txt", "hyps.txt"))
    assert len(raw.read_text().splitlines()) == len(out.read_text().splitlines())


@pytest.mark.parametrize("max_length", [0, -3])
def test_generate_rejects_non_positive_max_length_before_loading(max_length, models, data_dir, tmp_path, capsys,
                                                                  monkeypatch):
    monkeypatch.setattr(cli, "load_model", lambda path: pytest.fail("model loaded"))
    out = tmp_path / "h.txt"
    assert main(["generate", "--model", str(models["adapted"]), "--in", str(data_dir / "tgt_test.jsonl"),
                 "--max-length", str(max_length), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error:config: generate: bad value for 'max_length': must be >= 1, got {max_length}"
    ]
    assert list(tmp_path.iterdir()) == []


_EVALUATE_MISSING = ["evaluate", "--hyp", "missing.txt", "--ref", "missing.jsonl", "--report", "r.jsonl"]
_TRAIN_MISSING = ["train", "--model", "missing.model", "--train", "missing.jsonl", "--valid", "missing.jsonl",
                  "--out", "m.model"]


@pytest.mark.parametrize("argv, line", [
    pytest.param(["sample-fewshot", "--in", "missing.jsonl", "--out", "s.jsonl", "--k", "-1"],
                 "error:config: sample-fewshot: bad value for 'k': must be >= 1, got -1", id="k"),
    pytest.param(["sample-fewshot", "--in", "missing.jsonl", "--out", "s.jsonl", "--k", "0"],
                 "error:config: sample-fewshot: bad value for 'k': must be >= 1, got 0", id="k-0"),
    pytest.param(["humaneval-export", "--hyp-a", "a.txt", "--hyp-b", "b.txt", "--system-a", "FS-XLT",
                  "--system-b", "FS-XLT_pmpt", "--test", "missing.jsonl", "--sheet", "sheet.tsv",
                  "--key", "key.tsv", "--n", "0"],
                 "error:config: humaneval-export: bad value for 'n': must be >= 1, got 0", id="n"),
    *(pytest.param(_TRAIN_MISSING + ["--set", f"{key}={value}"],
                   f"error:config: bad value for '{key}': {key} must be finite, got {value}", id=f"{key}-{value}")
      for key, value in (("learning_rate", "nan"), ("learning_rate", "inf"))),
    pytest.param(["gen-synthetic", "--out", "g", "--seed", "-1"],
                 "error:config: bad value for 'seed': seed must be >= 0, got -1", id="gen-synthetic-seed"),
    pytest.param(["sample-fewshot", "--in", "missing.jsonl", "--out", "s.jsonl", "--k", "2", "--seed", "-2"],
                 "error:config: sample-fewshot: bad value for 'seed': must be >= 0, got -2", id="sample-fewshot-seed"),
    pytest.param(["pretrain", "--data", "missing.jsonl", "--out", "m.model", "--seed", "-3"],
                 "error:config: bad value for 'seed': seed must be >= 0, got -3", id="pretrain-seed"),
    pytest.param(["study", "--out", "s", "--seeds=-1"], "error:config: seeds must be >= 0, got -1", id="study-seeds"),
    pytest.param(["study", "--out", "s", "--seeds", " , "], "error:config: at least one seed is required",
                 id="study-seeds-empty"),
    pytest.param(["study", "--out", "s", "--seeds", "a,b"],
                 "error:config: study: bad value for 'seeds': bad seeds list 'a,b' (expected comma-separated integers)",
                 id="study-seeds-not-integers"),
    pytest.param(["humaneval-export", "--hyp-a", "a.txt", "--hyp-b", "b.txt", "--system-a", "FS-XLT",
                  "--system-b", "FS-XLT_pmpt", "--test", "missing.jsonl", "--sheet", "sheet.tsv",
                  "--key", "key.tsv", "--seed", "-4"],
                 "error:config: humaneval-export: bad value for 'seed': must be >= 0, got -4", id="humaneval-export-seed"),
])
def test_bounded_value_exits_2_before_loading(argv, line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert list(tmp_path.iterdir()) == []


def test_evaluate_report_fields(cli_sweep, data_dir, tmp_path):
    report = tmp_path / "report.jsonl"
    assert main(["evaluate", "--hyp", str(cli_sweep.root / "hyps.txt"), "--ref", str(data_dir / "tgt_test.jsonl"),
                 "--report", str(report), "--system", "adapted",
                 "--target-vocab", str(data_dir / "tgt_vocab.txt")]) == 0
    record = json.loads(report.read_text().splitlines()[0])
    for field in ("system", "score", "bp", "d1", "d2", "legality", "tokenizer"):
        assert field in record
    assert record["system"] == "adapted"
    assert 0.0 <= record["legality"] <= 100.0


def test_evaluate_perfect_hypotheses_score_100(data_dir, tmp_path):
    refs = [json.loads(line)["response"] for line in (data_dir / "tgt_test.jsonl").read_text().splitlines()]
    hyp = tmp_path / "h.txt"
    hyp.write_text("\n".join(refs) + "\n")
    report = tmp_path / "report.jsonl"
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(data_dir / "tgt_test.jsonl"),
                 "--report", str(report)]) == 0
    record = json.loads(report.read_text().splitlines()[0])
    assert record["score"] == 100.0
    assert record["legality"] == 100.0


def test_evaluate_echo_keeps_an_empty_system(data_dir, tmp_path):
    hyp = tmp_path / "h.txt"
    hyp.write_text("".join(json.loads(line)["response"] + "\n"
                           for line in (data_dir / "tgt_test.jsonl").read_text().splitlines()))
    report = tmp_path / "report.jsonl"
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(data_dir / "tgt_test.jsonl"),
                 "--report", str(report), "--system", ""]) == 0
    written = report.read_bytes()
    assert json.loads(written)["system"] == ""
    assert load_kv(str(report) + ".cfg")["system"] == ""
    assert main(["evaluate", "--config", str(report) + ".cfg"]) == 0  # the echo alone re-runs it
    assert report.read_bytes() == written


@pytest.mark.parametrize("case", ["comment", "padded", "comma"])
def test_a_value_its_echo_would_change_exits_2_before_writing(case, data_dir, tmp_path, capsys):
    out = tmp_path / "out"
    if case == "comma":  # the echo joins the paths with commas, and its re-run splits this one
        (tmp_path / "t,1.jsonl").write_bytes((data_dir / "tgt_valid.jsonl").read_bytes())
        key = "data"
        argv = ["pretrain", "--data", str(data_dir / "aux_train.jsonl"), str(tmp_path / "t,1.jsonl"),
                "--out", str(out)] + set_args(TINY_OPT)
    else:  # the echo's re-run drops a " #..." comment and surrounding spaces
        key = "system"
        hyp = tmp_path / "h.txt"
        hyp.write_text("".join(json.loads(line)["response"] + "\n"
                               for line in (data_dir / "tgt_test.jsonl").read_text().splitlines()))
        argv = ["evaluate", "--hyp", str(hyp), "--ref", str(data_dir / "tgt_test.jsonl"),
                "--report", str(out), "--system", {"comment": "pmpt #2", "padded": " padded "}[case]]
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:config:") and f"{key!r}" in line
    assert not out.exists() and not (tmp_path / "out.cfg").exists()


# -- study -----------------------------------------------------------------------


def test_study_prints_table(cli_sweep):
    lines = cli_sweep.stdout["study"].strip().splitlines()
    assert lines[0].split() == ["setting", "BLEU", "legality", "d1", "d2"]
    assert [line.split()[0] for line in lines[1:5]] == ["FS-XLT", "FS-XLT_pmpt", "MTL", "MTL_pmpt"]
    assert lines[5].startswith("prompted >= plain")


def test_study_artifacts_written(tiny_study):
    for name in ("report.jsonl", "study.json", "samples.txt", "timing.log", "study.resolved.cfg"):
        assert (tiny_study / name).exists(), name


def test_stage_pipeline_reproduces_study_records(tiny_study, tmp_path, monkeypatch):
    # the stage subcommands on the study's seed-0 corpus and budgets: FS-XLT_pmpt
    # through pretrain/train/adapt, MTL through interleave/train, both from one base
    monkeypatch.chdir(tmp_path)
    [seed] = TINY_STUDY.seeds
    synthetic = set_args(dataclasses.replace(TINY_STUDY.synthetic, seed=seed))
    max_length = str(TINY_STUDY.max_generate)
    assert main(["gen-synthetic", "--out", "data"] + synthetic) == 0
    assert main(["pretrain", "--data", "data/aux_train.jsonl", "data/tgt_valid.jsonl", "--out", "base.model",
                 "--seed", str(seed)] + set_args(TINY_STUDY.pretrain)) == 0
    evaluate = ["evaluate", "--ref", "data/tgt_test.jsonl", "--target-vocab", "data/tgt_vocab.txt"]
    assert main(["train", "--model", "base.model", "--train", "data/aux_train.jsonl", "--valid", "data/aux_valid.jsonl",
                 "--out", "src.model", "--prompted"] + set_args(TINY_STUDY.train)) == 0
    assert main(["adapt", "--model", "src.model", "--train", "data/tgt_train.jsonl", "--valid", "data/tgt_valid.jsonl",
                 "--out", "final.model", "--prompted"] + set_args(TINY_STUDY.adapt)) == 0
    assert main(["generate", "--model", "final.model", "--in", "data/tgt_test.jsonl", "--out", "pmpt.txt",
                 "--max-length", max_length, "--prompted"]) == 0
    assert main(evaluate + ["--hyp", "pmpt.txt", "--report", "pmpt.jsonl", "--system", f"FS-XLT_pmpt@seed{seed}"]) == 0
    assert main(["interleave", "--aux", "data/aux_train.jsonl", "--tgt", "data/tgt_train.jsonl",
                 "--out", "data/mixed.jsonl"]) == 0
    assert main(["train", "--model", "base.model", "--train", "data/mixed.jsonl", "--valid", "data/aux_valid.jsonl",
                 "--out", "mtl.model"] + set_args(TINY_STUDY.train)) == 0
    assert main(["generate", "--model", "mtl.model", "--in", "data/tgt_test.jsonl", "--out", "mtl.txt",
                 "--max-length", max_length]) == 0
    assert main(evaluate + ["--hyp", "mtl.txt", "--report", "mtl.jsonl", "--system", f"MTL@seed{seed}"]) == 0

    study = (tiny_study / "report.jsonl").read_text(encoding="utf-8").splitlines()
    for report in ("pmpt.jsonl", "mtl.jsonl"):
        line = (tmp_path / report).read_text(encoding="utf-8").strip()
        assert line == next(row for row in study if json.loads(row)["system"] == json.loads(line)["system"])


def test_study_rejects_synthetic_seed(capsys, tmp_path):
    # each study seed draws its own corpus, so the corpus seed is not a study key
    out = tmp_path / "s"
    assert main(["study", "--out", str(out), "--set", "synthetic.seed=5"] + set_args(TINY_STUDY)) == 2
    assert _err_line(capsys) == "error:config: study: unknown config key 'synthetic.seed'"
    assert not out.exists()


@pytest.mark.parametrize("key", ["max_generate"])
def test_study_rejects_non_positive_value_before_pretraining(key, capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "pretrain_span_corruption", lambda *a, **k: pytest.fail("pretraining ran"))
    out = tmp_path / "s"
    assert main(["study", "--out", str(out), "--set", f"{key}=0"]) == 2
    assert _err_line(capsys) == f"error:config: {key} must be >= 1, got 0"
    assert not out.exists()


# A value the config dataclasses reject is a configuration error (exit 2) that
# names its key, raised before any work starts.


def test_study_rejects_bad_optimizer_value_before_pretraining(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "pretrain_span_corruption", lambda *a, **k: pytest.fail("pretraining ran"))
    out = tmp_path / "s"
    assert main(["study", "--out", str(out), "--set", "train.learning_rate=-1", "--set", "train.epochs=3"]) == 2
    assert _err_line(capsys) == "error:config: bad value for 'train.learning_rate': learning_rate must be positive"
    assert not out.exists()


def test_gen_synthetic_rejects_bad_size(capsys, tmp_path):
    out = tmp_path / "g"
    assert main(["gen-synthetic", "--out", str(out), "--set", "n_test=0"]) == 2
    assert _err_line(capsys) == "error:config: bad value for 'n_test': n_test must be a positive integer, got 0"
    assert not out.exists()


# The Adam moment constants, weight decay (plain Adam has none), the
# training truncation, the per-epoch validation schedule, the 13a BLEU
# tokenizer, the prompt template, the corruption rate, the layout choice (now
# the --prompted boolean) and the BLEU floor are not settings, so an echo
# that names one exits 2 before any file is read.
@pytest.mark.parametrize("command, key", [
    ("pretrain", "eval_every"),
    ("pretrain", "beta1"),
    ("pretrain", "weight_decay"),
    ("train", "eval_every"),
    ("train", "beta2"),
    ("train", "max_length"),
    ("adapt", "eps"),
    ("adapt", "weight_decay"),
    ("study", "eval_every"),
    ("study", "pretrain.beta1"),
    ("study", "train.beta2"),
    ("study", "adapt.eps"),
    ("study", "train.max_length"),
    ("evaluate", "tokenizer"),
    ("evaluate", "smoothing_epsilon"),
    *((command, "template") for command in ("format", "pretrain", "train", "adapt", "generate")),
    ("pretrain", "corruption_rate"),
    ("format", "layout"),
])
def test_removed_key_is_unknown(command, key, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old.cfg").write_text(f"command = {command}\n{key} = 1\n")
    assert main([command, "--config", "old.cfg"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error:config: {command}: unknown config key {key!r}"]
    assert [path.name for path in tmp_path.iterdir()] == ["old.cfg"]


def test_a_stage_config_is_its_budget():
    # max_length names one thing, generate's cap on generated tokens; the
    # training truncation is an OptimizerConfig constant
    assert [name for name, (_, _, schema) in cli._COMMANDS.items() if "max_length" in schema] == ["generate"]
    assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["learning_rate", "epochs", "batch_size"]
    assert OptimizerConfig.max_length == 64 and not hasattr(OptimizerConfig, "weight_decay")


# The rate is the constant CORRUPTION_RATE, so a value the old flag rejected
# as out of range is now refused as an unknown flag, still before loading.
@pytest.mark.parametrize("rate", ["1.5", "0"])
def test_pretrain_rejects_corruption_rate_outside_open_unit_before_loading(rate, capsys, tmp_path):
    out = tmp_path / "m.model"
    assert main(["pretrain", "--data", str(tmp_path / "missing.jsonl"), "--out", str(out),
                 "--corruption-rate", rate]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error:config: unrecognized arguments: --corruption-rate {rate}"]
    assert not out.exists()


def test_pretrain_on_texts_under_four_tokens_exits_1(capsys, tmp_path):
    # the fixed 15% corruption rate masks no token of a 3-token text
    data = tmp_path / "short.jsonl"
    save_pairs(Corpus(pairs=tuple(DialoguePair(f"a{i} b{i}", f"c{i}", "da") for i in range(4)),
                      language="da"), str(data))
    out = tmp_path / "m.model"
    assert main(["pretrain", "--data", str(data), "--out", str(out), "--set", "epochs=1"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error:model: span corruption masked no validation text: at the fixed 15% rate a text needs at least 4 tokens"
    ]
    assert not out.exists()


def test_pretrain_echo_with_span_length_key_is_rejected(capsys, data_dir, tmp_path):
    # the two-sentinel frame masks one span per text, so span length is no key
    out = tmp_path / "m.model"
    echo = tmp_path / "old.cfg"
    echo.write_text(f"command = pretrain\ndata = {data_dir / 'aux_train.jsonl'}\nout = {out}\n"
                    "mean_span_length = 3.0\n")
    assert main(["pretrain", "--config", str(echo)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error:config: pretrain: unknown config key 'mean_span_length'"]
    assert not out.exists()


# -- human evaluation round trip ---------------------------------------------------


def test_humaneval_cli_round_trip(data_dir, tmp_path, capsys):
    hyp_a = tmp_path / "a.txt"
    hyp_b = tmp_path / "b.txt"
    hyp_a.write_text("et svar her\n" * 8)
    hyp_b.write_text("andet svar der\n" * 8)
    sheet, key = tmp_path / "sheet.tsv", tmp_path / "key.tsv"
    assert main(["humaneval-export", "--hyp-a", str(hyp_a), "--hyp-b", str(hyp_b),
                 "--system-a", "FS-XLT", "--system-b", "FS-XLT_pmpt",
                 "--test", str(data_dir / "tgt_test.jsonl"),
                 "--sheet", str(sheet), "--key", str(key), "--n", "6", "--seed", "4"]) == 0

    # blinded sheet never names the systems
    text = sheet.read_text()
    assert "FS-XLT" not in text

    lines = sheet.read_text().splitlines()
    votes = ["left", "right", "right", "neutral", "left", "right"]
    done = tmp_path / "done.tsv"
    done.write_text("\n".join([lines[0]] + [row + vote for row, vote in zip(lines[1:], votes)]) + "\n")
    out = tmp_path / "votes.txt"
    assert main(["humaneval-aggregate", "--sheet", str(done), "--key", str(key),
                 "--out", str(out), "--language", "da"]) == 0
    capsys.readouterr()

    table = out.read_text().splitlines()
    assert table[0] == "language: da"
    counts = [int(line.split()[1]) for line in table[2:5]]
    assert sum(counts) == 6
    assert counts[1] == 1  # one neutral vote survives the blinding untouched

    # without --out the table goes to stdout only: no table file and no echo
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["humaneval-aggregate", "--sheet", str(done), "--key", str(key), "--language", "da"]) == 0
    assert capsys.readouterr().out == out.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_readme_humaneval_commands_run_on_gen_synthetic_output(tmp_path, monkeypatch, capsys):
    commands = {}
    for line in _readme_commands():
        commands.setdefault(line.split()[1], line)  # the first of each subcommand: the pipeline's
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(commands["gen-synthetic"])[1:]) == 0
    test_size = len((tmp_path / "data" / "tgt_test.jsonl").read_text(encoding="utf-8").splitlines())
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "plain_hyp.txt").write_text("".join(f"plain {i}\n" for i in range(test_size)))
    (tmp_path / "runs" / "prompted_hyp.txt").write_text("".join(f"prompted {i}\n" for i in range(test_size)))
    assert main(shlex.split(commands["humaneval-export"])[1:]) == 0

    sheet = tmp_path / "eval" / "sheet.tsv"
    header, *rows = sheet.read_text(encoding="utf-8").splitlines()
    votes = np.random.default_rng(0).choice(CHOICES, size=len(rows)).tolist()
    sheet.write_text("\n".join([header] + [row + vote for row, vote in zip(rows, votes)]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(shlex.split(commands["humaneval-aggregate"])[1:]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].endswith(f"({len(rows)} judged)")
    assert table[2].split()[:2] == ["Neutral", str(votes.count("neutral"))]


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    done = subprocess.run([sys.executable, "-m", "crossdial", "--help"], cwd=README.parent, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: crossdial")
