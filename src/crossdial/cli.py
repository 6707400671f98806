"""Command-line entry point: every pipeline stage as one subcommand.

Conventions shared by all subcommands:

* every value resolves as baked default < --config file < --set key=value
  < dedicated flag;
* every run writes its fully-resolved configuration next to its outputs
  (``<out>.cfg`` for file outputs, ``<name>.resolved.cfg`` inside output
  directories).  The echo is itself a valid --config file, so
  ``crossdial <command> --config <echo>`` re-runs the command without the
  original flags;
* all randomness is controlled by an explicit --seed, so re-running a
  command with identical inputs yields byte-identical primary outputs
  (wall-clock diagnostics go to separate log files);
* exit 0 on success, 2 for usage or configuration problems, 1 for domain
  errors, always with a one-line ``error:<category>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Callable

from .artifact import read_text, write_lines
from .corpus import (
    Corpus,
    CorpusError,
    SyntheticSpec,
    derive_token_vocabulary,
    load_pairs,
    sample_few_shot,
    save_pairs,
    generate_synthetic_bilingual,
)
from .experiment import (
    MAX_GENERATE,
    SETTINGS,
    STUDY_ADAPT,
    STUDY_PRETRAIN,
    STUDY_TRAIN,
    StudyConfig,
    finetune,
    format_pairs,
    generate_responses,
    pretrain_base,
    run_forgetting_study,
    score,
    write_study_artifacts,
)
from .humaneval import HumanEvalError, aggregate_votes, export_pairs
from .interleave import InterleaveError, interleave_even
from .kvconfig import (
    ConfigError, coerce, config_from, config_schema, dump_kv, load_kv, parse_bool, parse_kv_text, write_kv,
)
from .metrics import MetricError, report_record, write_metric_report
from .model import ModelConfig, ModelError, OptimizerConfig, TrainingDivergedError, load_model, save_model, train
from .prompting import PromptError

log = logging.getLogger(__name__)

# ``train`` runs through ``finetune``; it stays bound here because perfbench's
# recorder patches each module's binding of it and its smoke test checks this one.
_FINETUNE_STEP = train


# ---------------------------------------------------------------------------
# Key resolution: baked default < --config < --set < dedicated flag.
# Each command declares {key: (parse, default[, flag help])}, taking the keys
# of its config dataclasses from config_schema; _REQUIRED defaults must
# arrive from a flag or the config.  An entry with a help string is also a
# flag, --<key> with '-' for '_'.

_REQUIRED = object()


def _bool(value) -> bool:
    return value if isinstance(value, bool) else parse_bool(str(value))


def _paths(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [item.strip() for item in str(value).split(",") if item.strip()]


def _int_at_least(low: int) -> Callable[[object], int]:
    def parse(value) -> int:
        number = int(value)
        if number < low:
            raise ConfigError(f"must be >= {low}, got {number}")
        return number

    return parse


_positive_int = _int_at_least(1)


def _flags(schema: dict[str, tuple], **helps: str) -> dict[str, tuple]:
    """``schema`` with a flag, described by ``helps[key]``, for each key in ``helps``."""
    return {key: entry + (helps[key],) if key in helps else entry for key, entry in schema.items()}


def _merged_entries(args, command: str) -> dict[str, object]:
    """Config file + --set overrides + explicitly passed flags, in that order."""
    entries: dict[str, object] = {}
    if args.config:
        entries.update(load_kv(args.config))
    entries.update(parse_kv_text("\n".join(args.set or ()), source="--set"))  # line N: the Nth --set
    echoed_by = entries.pop("command", None)
    if echoed_by is not None and echoed_by != command:
        raise ConfigError(f"config was written by {echoed_by!r}, expected {command!r}")
    for key, value in vars(args).items():
        if key in ("command", "config", "set", "verbose") or value is None:
            continue
        entries[key] = value
    return entries


def _resolve(args, command: str, schema: dict[str, tuple]) -> dict:
    """Coerce merged entries against ``schema``; fill defaults, demand required keys.

    A value that the config echo would not read back as itself is refused,
    so the echo re-runs what it echoes: one with surrounding spaces, a " #"
    or a line break, or a comma inside one of a list of paths.
    """
    parsers = {key: entry[0] for key, entry in schema.items()}
    resolved = coerce(_merged_entries(args, command), parsers, source=command)
    for key, (_, default, *_) in schema.items():
        if key in resolved:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"{command}: missing required key {key!r} (flag or config)")
        resolved[key] = default
    for key, value in resolved.items():
        try:
            echoed = coerce(parse_kv_text(dump_kv({key: value})), parsers)
        except ConfigError:
            echoed = None
        if repr(echoed) != repr({key: value}):  # repr: a nan reads back as itself
            raise ConfigError(f"{command}: {key!r} would not re-run from the config echo: {value!r}")
    return {key: resolved[key] for key in schema}  # canonical order


def _load_single_language_corpus(path: str) -> Corpus:
    pairs = load_pairs(path)
    languages = {pair.language for pair in pairs}
    if len(languages) != 1:
        raise CorpusError(f"{path}: expected a single language, found {sorted(languages) or 'no records'}")
    return Corpus(pairs=tuple(pairs), language=languages.pop())


def _write_history(path: str, result) -> None:
    rows = [{"step": step, "valid_loss": valid_loss} for step, valid_loss in result.valid_losses]
    rows.append({"selected_step": result.best.step, "selected_valid_loss": result.best.valid_loss})
    write_lines(path, map(json.dumps, rows))


# ---------------------------------------------------------------------------
# Subcommands: each handler takes the keys its schema resolved and returns
# the path of its config echo (None: no echo), which _run writes once the
# handler's outputs are written; _COMMANDS below pairs them.

_GEN_SYNTHETIC_SCHEMA: dict[str, tuple] = {
    "out": (str, _REQUIRED, "output directory"),
    **_flags(config_schema(SyntheticSpec()), seed="corpus sampling seed"),
}


def _cmd_gen_synthetic(r: dict) -> str:
    bundle = generate_synthetic_bilingual(config_from(SyntheticSpec(), r))
    for name, corpus in (
        ("aux_train", bundle.aux_train),
        ("aux_valid", bundle.aux_valid),
        ("aux_test", bundle.aux_test),
        ("tgt_train", bundle.tgt_fewshot),
        ("tgt_valid", bundle.tgt_valid),
        ("tgt_test", bundle.tgt_test),
    ):
        save_pairs(corpus, os.path.join(r["out"], f"{name}.jsonl"))
    for name, vocab in (("aux_vocab", bundle.aux_vocabulary), ("tgt_vocab", bundle.tgt_vocabulary)):
        write_lines(os.path.join(r["out"], f"{name}.txt"), sorted(vocab))
    return os.path.join(r["out"], "synthetic.resolved.cfg")


_SAMPLE_FEWSHOT_SCHEMA: dict[str, tuple] = {
    "in": (str, _REQUIRED, "input corpus file"),
    "k": (_positive_int, _REQUIRED, "subset size"),
    "seed": (_int_at_least(0), 0, "sampling seed"),
    "out": (str, _REQUIRED, "output corpus file"),
}


def _cmd_sample_fewshot(r: dict) -> str:
    corpus = _load_single_language_corpus(r["in"])
    subset = sample_few_shot(corpus, r["k"], r["seed"])
    save_pairs(subset, r["out"])
    return r["out"] + ".cfg"


_INTERLEAVE_SCHEMA: dict[str, tuple] = {
    "aux": (str, _REQUIRED, "auxiliary corpus file"),
    "tgt": (str, _REQUIRED, "target corpus file"),
    "out": (str, _REQUIRED, "output corpus file, mixed languages"),
}


def _cmd_interleave(r: dict) -> str:
    aux = _load_single_language_corpus(r["aux"])
    tgt = _load_single_language_corpus(r["tgt"])
    mixed = interleave_even(aux, tgt)
    save_pairs(mixed.pairs, r["out"])
    log.info("interleaved %d aux + %d tgt pairs (block size %d)", len(aux), len(tgt), mixed.block_size)
    return r["out"] + ".cfg"


# the one spelling of the layout choice, on every subcommand that formats pairs
_PROMPTED = (_bool, False, "use the fixed-prompt layout")

_FORMAT_SCHEMA: dict[str, tuple] = {
    "in": (str, _REQUIRED, "input corpus file"),
    "out": (str, _REQUIRED, "output JSONL of formatted examples"),
    "prompted": _PROMPTED,
}


def _cmd_format(r: dict) -> str:
    pairs = load_pairs(r["in"])
    prompted = r["prompted"]
    write_lines(r["out"], (json.dumps({"source": source, "target": target, "prompted": prompted}, ensure_ascii=False)
                           for source, target in format_pairs(pairs, prompted)))
    return r["out"] + ".cfg"


_PRETRAIN_SCHEMA: dict[str, tuple] = {
    "data": (_paths, _REQUIRED, "corpus files forming the pretraining pool"),
    "out": (str, _REQUIRED, "output model file"),
    **_flags(
        config_schema(ModelConfig()),
        seed="init/corruption seed",
        embedding_size="token embedding width",
        hidden_size="GRU state and attention width",
    ),
    **config_schema(STUDY_PRETRAIN),
}


def _cmd_pretrain(r: dict) -> str:
    model_config = config_from(ModelConfig(), r)
    config = config_from(STUDY_PRETRAIN, r)
    pool = [_load_single_language_corpus(path) for path in r["data"]]
    result = pretrain_base(pool, model_config, config)
    save_model(result.model, r["out"])
    _write_history(r["out"] + ".history", result)
    return r["out"] + ".cfg"


def _finetune_schema(defaults: OptimizerConfig) -> dict[str, tuple]:
    return {
        "model": (str, _REQUIRED, "input model file"),
        "train": (str, _REQUIRED, "training corpus file"),
        "valid": (str, _REQUIRED, "validation corpus file for checkpoint selection"),
        "out": (str, _REQUIRED, "output model file"),
        "prompted": _PROMPTED,
        **config_schema(defaults),
    }


def _cmd_finetune(r: dict) -> str:
    """``train`` and ``adapt``: their schemas differ only in the optimizer
    defaults, and ``r`` holds every optimizer key, so either stage's
    defaults give the same config."""
    config = config_from(STUDY_TRAIN, r)
    model = load_model(r["model"])
    result = finetune(model, load_pairs(r["train"]), load_pairs(r["valid"]), r["prompted"], config)
    save_model(model, r["out"])
    _write_history(r["out"] + ".history", result)
    return r["out"] + ".cfg"


_GENERATE_SCHEMA: dict[str, tuple] = {
    "model": (str, _REQUIRED, "model file"),
    "in": (str, _REQUIRED, "corpus file supplying the contexts"),
    "out": (str, _REQUIRED, "output text file, one hypothesis per line"),
    "raw_out": (str, "", "also write the unextracted generations"),
    "prompted": _PROMPTED,
    "max_length": (_positive_int, MAX_GENERATE, "maximum generated tokens per response"),
}


def _cmd_generate(r: dict) -> str:
    model = load_model(r["model"])
    pairs = load_pairs(r["in"])
    raw, hypotheses = generate_responses(model, pairs, r["prompted"], r["max_length"])
    write_lines(r["out"], hypotheses)
    if r["raw_out"]:
        write_lines(r["raw_out"], raw)
    return r["out"] + ".cfg"


_EVALUATE_SCHEMA: dict[str, tuple] = {
    "hyp": (str, _REQUIRED, "hypothesis text file, one per line"),
    "ref": (str, _REQUIRED, "reference corpus file"),
    "report": (str, _REQUIRED, "output metric report, JSONL"),
    "system": (str, "system", "system name recorded in the report"),
    "target_vocab": (str, "", "one legal token per line (default: derive from the references)"),
}


def _cmd_evaluate(r: dict) -> str:
    hypotheses = read_text(r["hyp"]).splitlines()
    ref_pairs = load_pairs(r["ref"])
    references = [pair.response for pair in ref_pairs]
    if r["target_vocab"]:
        vocabulary = frozenset(tok for tok in read_text(r["target_vocab"]).splitlines() if tok.strip())
    else:
        vocabulary = derive_token_vocabulary([ref_pairs])
    reports = score(hypotheses, references, vocabulary)
    write_metric_report(r["report"], [report_record(r["system"], *reports)])
    return r["report"] + ".cfg"


_STUDY_SCHEMA: dict[str, tuple] = {
    "out": (str, _REQUIRED, "output directory"),
    **_flags(config_schema(StudyConfig()), seeds="comma-separated seed list"),
}


def _cmd_study(r: dict) -> str:
    report = run_forgetting_study(config_from(StudyConfig(), r))
    write_study_artifacts(report, r["out"])
    lines = [f"{'setting':<14}{'BLEU':>8}{'legality':>10}{'d1':>8}{'d2':>8}"]
    for name in SETTINGS:
        med = report.medians[name]
        lines.append(f"{name:<14}{med['score']:>8.2f}{med['legality']:>10.1f}{med['d1']:>8.1f}{med['d2']:>8.1f}")
    lines.append(f"prompted >= plain on median legality in both scenarios: {report.direction_holds()}")
    print("\n".join(lines))
    log.info("study wall time: %.1fs", report.wall_seconds)
    return os.path.join(r["out"], "study.resolved.cfg")


_HUMANEVAL_EXPORT_SCHEMA: dict[str, tuple] = {
    "hyp_a": (str, _REQUIRED, "hypotheses of the first system"),
    "hyp_b": (str, _REQUIRED, "hypotheses of the second system"),
    "system_a": (str, _REQUIRED, "name of the first system"),
    "system_b": (str, _REQUIRED, "name of the second system"),
    "test": (str, _REQUIRED, "test corpus file"),
    "sheet": (str, _REQUIRED, "output blinded sheet, TSV"),
    "key": (str, _REQUIRED, "output key file, TSV"),
    "n": (_positive_int, 100, "samples to draw"),
    "seed": (_int_at_least(0), 0, "sampling/blinding seed"),
    "allow_cross_family": (_bool, False, "allow pairing systems from different scenario families"),
}


def _cmd_humaneval_export(r: dict) -> str:
    hyp_a = read_text(r["hyp_a"]).splitlines()
    hyp_b = read_text(r["hyp_b"]).splitlines()
    test = _load_single_language_corpus(r["test"])
    export_pairs(
        hyp_a,
        hyp_b,
        r["system_a"],
        r["system_b"],
        test,
        sheet_path=r["sheet"],
        key_path=r["key"],
        n=r["n"],
        seed=r["seed"],
        allow_cross_family=r["allow_cross_family"],
    )
    return r["sheet"] + ".cfg"


_HUMANEVAL_AGGREGATE_SCHEMA: dict[str, tuple] = {
    "sheet": (_paths, _REQUIRED, "completed sheet file(s)"),
    "key": (str, _REQUIRED, "key file from the export"),
    "out": (str, "", "also write the table to this file"),
    "language": (str, "", "language label for the table"),
}


def _cmd_humaneval_aggregate(r: dict) -> str | None:
    report = aggregate_votes(r["sheet"], r["key"], language=r["language"])
    table = report.format_table()
    print(table)
    if not r["out"]:
        return None
    write_lines(r["out"], [table])
    return r["out"] + ".cfg"


# name -> (help, handler, schema)
_COMMANDS: dict[str, tuple[str, Callable[[dict], str | None], dict[str, tuple]]] = {
    "gen-synthetic": ("generate the two-language synthetic corpus set", _cmd_gen_synthetic, _GEN_SYNTHETIC_SCHEMA),
    "sample-fewshot": ("draw a deterministic few-shot subset from a train corpus",
                       _cmd_sample_fewshot, _SAMPLE_FEWSHOT_SCHEMA),
    "interleave": ("evenly interleave few-shot targets into an auxiliary stream", _cmd_interleave, _INTERLEAVE_SCHEMA),
    "format": ("render pairs to (source, target) training texts", _cmd_format, _FORMAT_SCHEMA),
    "pretrain": ("span-corruption pretraining on raw corpus text", _cmd_pretrain, _PRETRAIN_SCHEMA),
    "train": ("fine-tune a model on a corpus (defaults: the study's source-stage budget)",
              _cmd_finetune, _finetune_schema(STUDY_TRAIN)),
    "adapt": ("few-shot adaptation (defaults: the study's target-stage budget)",
              _cmd_finetune, _finetune_schema(STUDY_ADAPT)),
    "generate": ("greedy generation for every context of a corpus", _cmd_generate, _GENERATE_SCHEMA),
    "evaluate": ("score hypotheses against a reference corpus", _cmd_evaluate, _EVALUATE_SCHEMA),
    "study": ("run the 4-setting forgetting study over several seeds", _cmd_study, _STUDY_SCHEMA),
    "humaneval-export": ("export a blinded pairwise evaluation sheet", _cmd_humaneval_export, _HUMANEVAL_EXPORT_SCHEMA),
    "humaneval-aggregate": ("unblind completed sheets and tally votes",
                            _cmd_humaneval_aggregate, _HUMANEVAL_AGGREGATE_SCHEMA),
}


# ---------------------------------------------------------------------------
# Parser.  Flags default to None so "explicitly given" is distinguishable
# from "absent", and take raw strings that the schema's parser converts.


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ConfigError, so they print one error line like any other."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crossdial",
        description="Few-shot cross-lingual dialogue transfer: data, training, metrics, study.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", default=None, help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    kinds = {_bool: {"action": "store_true", "default": None}, _paths: {"nargs": "+"}}  # others take one string
    for name, (helptext, _, schema) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="flat key=value config file (echoes re-load here)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config entry (repeatable)")
        for key, (parse, default, *helps) in schema.items():
            if not helps:
                continue
            required = " (required)" if default is _REQUIRED else ""
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=helps[0] + required, **kinds.get(parse, {}))
    return parser


_ERROR_CATEGORIES: tuple[tuple[type, str, int], ...] = (
    (ConfigError, "config", 2),
    (CorpusError, "corpus", 1),
    (PromptError, "prompt", 1),
    (InterleaveError, "interleave", 1),
    (MetricError, "metric", 1),
    (TrainingDivergedError, "train", 1),
    (ModelError, "model", 1),
    (HumanEvalError, "humaneval", 1),
    (OSError, "io", 1),
)


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # -h/--help; usage errors raise ConfigError instead
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    _, handler, schema = _COMMANDS[args.command]
    resolved = _resolve(args, args.command, schema)
    echo = handler(resolved)
    if echo is not None:
        write_kv(echo, {"command": args.command, **resolved})
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    except tuple(exc_type for exc_type, _, _ in _ERROR_CATEGORIES) as exc:
        for exc_type, category, code in _ERROR_CATEGORIES:
            if isinstance(exc, exc_type):
                print(f"error:{category}: {exc}", file=sys.stderr)
                return code
        raise AssertionError("unreachable")


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
