"""The CLI sweep that criterion 8 and ``test_cli.py`` share, run once per session.

It drives every subcommand once, from its own directory with relative
paths, so every echo it writes is the text ``PINNED_ECHOES`` pins.  Tests
read its directory and never write into it: a test that re-runs a command
writes into its own ``tmp_path``.
"""

import contextlib
import io
import os
from pathlib import Path
from typing import NamedTuple

import pytest

from crossdial.cli import main
from helpers import TINY_OPT, TINY_STUDY, set_args


class Sweep(NamedTuple):
    root: Path  # the directory the sweep ran in
    steps: list  # (subcommand, its outputs relative to root, its echo last), in run order
    stdout: dict  # subcommand -> what it printed


def _run_all_subcommands() -> tuple:
    """Drive every subcommand once from the working directory; return the
    steps and what each subcommand printed."""
    data, steps, stdout = Path("data"), [], {}

    def run(argv, outputs):
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert main([str(a) for a in argv]) == 0, argv
        steps.append((argv[0], [Path(path) for path in outputs]))
        stdout[argv[0]] = printed.getvalue()

    run(["gen-synthetic", "--out", data, "--seed", "3",
         "--set", "vocab_size=16", "--set", "n_train_aux=40", "--set", "n_fewshot_tgt=6",
         "--set", "n_valid=8", "--set", "n_test=8"],
        [data / name for name in (
            "aux_train.jsonl", "aux_valid.jsonl", "aux_test.jsonl",
            "tgt_train.jsonl", "tgt_valid.jsonl", "tgt_test.jsonl",
            "aux_vocab.txt", "tgt_vocab.txt", "synthetic.resolved.cfg")])
    run(["sample-fewshot", "--in", data / "aux_train.jsonl", "--k", "5", "--seed", "2", "--out", "few.jsonl"],
        ["few.jsonl", "few.jsonl.cfg"])
    run(["interleave", "--aux", data / "aux_train.jsonl", "--tgt", data / "tgt_train.jsonl", "--out", "mixed.jsonl"],
        ["mixed.jsonl", "mixed.jsonl.cfg"])
    run(["format", "--in", data / "tgt_train.jsonl", "--out", "fmt.jsonl", "--prompted"],
        ["fmt.jsonl", "fmt.jsonl.cfg"])
    run(["pretrain", "--data", data / "aux_train.jsonl", data / "tgt_valid.jsonl",
         "--out", "pre.model", "--embedding-size", "12", "--hidden-size", "16", "--seed", "1"] + set_args(TINY_OPT),
        ["pre.model", "pre.model.history", "pre.model.cfg"])
    run(["train", "--model", "pre.model", "--train", data / "aux_train.jsonl",
         "--valid", data / "aux_valid.jsonl", "--out", "src.model", "--prompted"] + set_args(TINY_OPT),
        ["src.model", "src.model.history", "src.model.cfg"])
    run(["adapt", "--model", "src.model", "--train", data / "tgt_train.jsonl",
         "--valid", data / "tgt_valid.jsonl", "--out", "adapted.model", "--prompted"] + set_args(TINY_OPT),
        ["adapted.model", "adapted.model.history", "adapted.model.cfg"])
    run(["generate", "--model", "adapted.model", "--in", data / "tgt_test.jsonl",
         "--out", "hyps.txt", "--raw-out", "raw.txt", "--prompted", "--max-length", "24"],
        ["hyps.txt", "raw.txt", "hyps.txt.cfg"])
    run(["evaluate", "--hyp", "hyps.txt", "--ref", data / "tgt_test.jsonl",
         "--report", "report.jsonl", "--target-vocab", data / "tgt_vocab.txt"],
        ["report.jsonl", "report.jsonl.cfg"])
    run(["study", "--out", "study"] + set_args(TINY_STUDY),
        [f"study/{name}" for name in ("report.jsonl", "study.json", "samples.txt", "study.resolved.cfg")])
    run(["humaneval-export", "--hyp-a", "hyps.txt", "--hyp-b", "hyps.txt",
         "--system-a", "FS-XLT", "--system-b", "FS-XLT_pmpt", "--test", data / "tgt_test.jsonl",
         "--sheet", "sheet.tsv", "--key", "key.tsv", "--n", "6", "--seed", "4"],
        ["sheet.tsv", "key.tsv", "sheet.tsv.cfg"])
    # deterministic votes complete the sheet between export and aggregation
    header, *rows = Path("sheet.tsv").read_text().splitlines()
    votes = ["left", "right", "neutral", "right", "left", "right"]
    Path("done.tsv").write_text("\n".join([header] + [row + vote for row, vote in zip(rows, votes)]) + "\n")
    run(["humaneval-aggregate", "--sheet", "done.tsv", "--key", "key.tsv", "--out", "votes.txt", "--language", "da"],
        ["votes.txt", "votes.txt.cfg"])
    return steps, stdout


@pytest.fixture(scope="session")
def cli_sweep(tmp_path_factory) -> Sweep:
    root = tmp_path_factory.mktemp("sweep")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        return Sweep(root, *_run_all_subcommands())
    finally:
        os.chdir(cwd)
