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
from typing import Callable, Sequence

from .corpus import (
    Corpus,
    CorpusError,
    DialoguePair,
    SyntheticSpec,
    load_pairs,
    sample_few_shot,
    save_corpus,
    save_pairs,
    generate_synthetic_bilingual,
)
from .experiment import (
    SETTINGS,
    StudyConfig,
    format_pairs,
    generate_responses,
    run_forgetting_study,
    template_texts,
    write_study_artifacts,
)
from .humaneval import HumanEvalError, aggregate_votes, export_pairs
from .interleave import InterleaveError, interleave_even
from .kvconfig import ConfigError, config_from, config_schema, load_kv, parse_bool, write_kv
from .metrics import (
    MetricError,
    TOKENIZERS,
    corpus_bleu,
    distinct_report,
    language_legality,
    report_record,
    write_metric_report,
)
from .model import (
    PRETRAIN_DEFAULTS,
    SOURCE_TRAIN_DEFAULTS,
    TARGET_ADAPT_DEFAULTS,
    AttentiveSeq2Seq,
    ModelConfig,
    ModelError,
    OptimizerConfig,
    TrainingDivergedError,
    Vocabulary,
    load_model,
    pretrain_span_corruption,
    restore_checkpoint,
    save_model,
    select_best_checkpoint,
    train,
)
from .prompting import DEFAULT_TEMPLATE, PromptError, load_template

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Key resolution: baked default < --config < --set < dedicated flag.
# Each command declares {key: (parse, default)}, taking the keys of its
# config dataclasses from config_schema; _REQUIRED defaults must arrive
# from a flag or the config.

_REQUIRED = object()


def _bool(value) -> bool:
    return value if isinstance(value, bool) else parse_bool(str(value))


def _paths(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [item.strip() for item in str(value).split(",") if item.strip()]


def _choice(*allowed: str) -> Callable[[object], str]:
    def parse(value) -> str:
        text = str(value)
        if text not in allowed:
            raise ConfigError(f"must be one of {', '.join(allowed)}, got {text!r}")
        return text

    return parse


def _optional_positive_int(value) -> int | None:
    if value is None or value == "":
        return None
    number = int(value)
    if number < 1:
        raise ConfigError(f"must be >= 1, got {number}")
    return number


def _parse_set_entries(items: list[str] | None) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items or []:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        if key in out:
            raise ConfigError(f"--set: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _merged_entries(args, command: str) -> dict[str, object]:
    """Config file + --set overrides + explicitly passed flags, in that order."""
    entries: dict[str, object] = {}
    if getattr(args, "config", None):
        entries.update(load_kv(args.config))
    entries.update(_parse_set_entries(getattr(args, "set", None)))
    echoed_by = entries.pop("command", None)
    if echoed_by is not None and echoed_by != command:
        raise ConfigError(f"config was written by {echoed_by!r}, expected {command!r}")
    for key, value in vars(args).items():
        if key in ("command", "config", "set", "verbose", "func") or value is None:
            continue
        entries[key] = value
    return entries


def _resolve(args, command: str, schema: dict[str, tuple]) -> dict:
    """Coerce merged entries against ``schema``; fill defaults, reject strays."""
    entries = _merged_entries(args, command)
    resolved: dict = {}
    for key, value in entries.items():
        if key not in schema:
            raise ConfigError(f"{command}: unknown config key {key!r}")
        try:
            resolved[key] = schema[key][0](value)
        except ConfigError as exc:
            raise ConfigError(f"{command}: bad value for {key!r}: {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{command}: bad value for {key!r}: {exc}") from None
    for key, (_, default) in schema.items():
        if key in resolved:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"{command}: missing required key {key!r} (flag or config)")
        resolved[key] = default
    return {key: resolved[key] for key in schema}  # canonical order


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def _write_echo(path: str, command: str, resolved: dict) -> None:
    _ensure_parent(path)
    write_kv(path, {"command": command, **resolved})


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _uniform_language(pairs: Sequence[DialoguePair], path: str) -> str:
    languages = {pair.language for pair in pairs}
    if len(languages) != 1:
        raise CorpusError(f"{path}: expected a single language, found {sorted(languages) or 'no records'}")
    return next(iter(languages))


def _load_single_language_corpus(path: str, split: str, strict: bool) -> Corpus:
    pairs = load_pairs(path, strict=strict)
    language = _uniform_language(pairs, path)
    return Corpus(pairs=tuple(pairs), split=split, language=language)


def _template(name: str):
    return load_template(name) if name else DEFAULT_TEMPLATE


def _write_history(path: str, result, best) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for step, valid_loss in result.valid_losses:
            fh.write(json.dumps({"step": step, "valid_loss": valid_loss}) + "\n")
        fh.write(json.dumps({"selected_step": best.step, "selected_valid_loss": best.valid_loss}) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen_synthetic(args) -> int:
    r = _resolve(args, "gen-synthetic", {"out": (str, _REQUIRED), **config_schema(SyntheticSpec())})
    bundle = generate_synthetic_bilingual(config_from(SyntheticSpec(), r))
    os.makedirs(r["out"], exist_ok=True)
    for name, corpus in (
        ("aux_train", bundle.aux_train),
        ("aux_valid", bundle.aux_valid),
        ("aux_test", bundle.aux_test),
        ("tgt_train", bundle.tgt_fewshot),
        ("tgt_valid", bundle.tgt_valid),
        ("tgt_test", bundle.tgt_test),
    ):
        save_corpus(corpus, os.path.join(r["out"], f"{name}.jsonl"))
    for name, vocab in (("aux_vocab", bundle.aux_vocabulary), ("tgt_vocab", bundle.tgt_vocabulary)):
        with open(os.path.join(r["out"], f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(sorted(vocab)) + "\n")
    _write_echo(os.path.join(r["out"], "synthetic.resolved.cfg"), "gen-synthetic", r)
    return 0


_SAMPLE_FEWSHOT_SCHEMA: dict[str, tuple] = {
    "in": (str, _REQUIRED),
    "k": (int, _REQUIRED),
    "seed": (int, 0),
    "out": (str, _REQUIRED),
    "strict": (_bool, False),
}


def _cmd_sample_fewshot(args) -> int:
    r = _resolve(args, "sample-fewshot", _SAMPLE_FEWSHOT_SCHEMA)
    corpus = _load_single_language_corpus(r["in"], "train", r["strict"])
    subset = sample_few_shot(corpus, r["k"], r["seed"])
    _ensure_parent(r["out"])
    save_corpus(subset, r["out"])
    _write_echo(r["out"] + ".cfg", "sample-fewshot", r)
    return 0


_INTERLEAVE_SCHEMA: dict[str, tuple] = {
    "aux": (str, _REQUIRED),
    "tgt": (str, _REQUIRED),
    "out": (str, _REQUIRED),
    "strict": (_bool, False),
}


def _cmd_interleave(args) -> int:
    r = _resolve(args, "interleave", _INTERLEAVE_SCHEMA)
    aux = _load_single_language_corpus(r["aux"], "train", r["strict"])
    tgt = _load_single_language_corpus(r["tgt"], "train", r["strict"])
    mixed = interleave_even(aux, tgt)
    _ensure_parent(r["out"])
    save_pairs(mixed.pairs, r["out"])
    _write_echo(r["out"] + ".cfg", "interleave", r)
    log.info("interleaved %d aux + %d tgt pairs (block size %d)", len(aux), len(tgt), mixed.block_size)
    return 0


_FORMAT_SCHEMA: dict[str, tuple] = {
    "in": (str, _REQUIRED),
    "out": (str, _REQUIRED),
    "layout": (_choice("prompted", "plain"), "prompted"),
    "template": (str, ""),
    "strict": (_bool, False),
}


def _cmd_format(args) -> int:
    r = _resolve(args, "format", _FORMAT_SCHEMA)
    pairs = load_pairs(r["in"], strict=r["strict"])
    prompted = r["layout"] == "prompted"
    formatted = format_pairs(pairs, prompted, _template(r["template"]))
    _ensure_parent(r["out"])
    with open(r["out"], "w", encoding="utf-8") as fh:
        for source, target in formatted:
            fh.write(json.dumps({"source": source, "target": target, "prompted": prompted}, ensure_ascii=False) + "\n")
    _write_echo(r["out"] + ".cfg", "format", r)
    return 0


_PRETRAIN_SCHEMA: dict[str, tuple] = {
    "data": (_paths, _REQUIRED),
    "out": (str, _REQUIRED),
    "seed": (int, 0),
    "embedding_size": (int, 32),
    "hidden_size": (int, 64),
    "corruption_rate": (float, 0.15),
    "mean_span_length": (float, 3.0),
    "template": (str, ""),
    "eval_every": (_optional_positive_int, None),
    "strict": (_bool, False),
    **config_schema(PRETRAIN_DEFAULTS),
}


def _cmd_pretrain(args) -> int:
    r = _resolve(args, "pretrain", _PRETRAIN_SCHEMA)
    model_config = config_from(ModelConfig(), r)
    optimizer_config = config_from(PRETRAIN_DEFAULTS, r)
    template = _template(r["template"])
    corpora = [_load_single_language_corpus(path, "train", r["strict"]) for path in r["data"]]
    vocabulary = Vocabulary.build(corpora, extra_texts=template_texts(template))
    model = AttentiveSeq2Seq(vocabulary, model_config)
    result = pretrain_span_corruption(
        model,
        corpora,
        optimizer_config,
        corruption_rate=r["corruption_rate"],
        mean_span_length=r["mean_span_length"],
        template=template,
        seed=r["seed"],
        eval_every=r["eval_every"],
    )
    _ensure_parent(r["out"])
    save_model(result.model, r["out"])
    best = select_best_checkpoint(result.checkpoints)
    _write_history(r["out"] + ".history", result, best)
    _write_echo(r["out"] + ".cfg", "pretrain", r)
    return 0


def _finetune_schema(defaults: OptimizerConfig) -> dict[str, tuple]:
    return {
        "model": (str, _REQUIRED),
        "train": (str, _REQUIRED),
        "valid": (str, _REQUIRED),
        "out": (str, _REQUIRED),
        "prompted": (_bool, False),
        "template": (str, ""),
        "eval_every": (_optional_positive_int, None),
        "strict": (_bool, False),
        **config_schema(defaults),
    }


def _finetune(args, command: str, defaults: OptimizerConfig) -> int:
    r = _resolve(args, command, _finetune_schema(defaults))
    config = config_from(defaults, r)
    template = _template(r["template"])
    model = load_model(r["model"])
    train_pairs = load_pairs(r["train"], strict=r["strict"])
    valid_pairs = load_pairs(r["valid"], strict=r["strict"])
    data = format_pairs(train_pairs, r["prompted"], template)
    valid = format_pairs(valid_pairs, r["prompted"], template)
    result = train(model, data, valid, config, eval_every=r["eval_every"])
    best = select_best_checkpoint(result.checkpoints)
    restore_checkpoint(model, best)
    _ensure_parent(r["out"])
    save_model(model, r["out"])
    _write_history(r["out"] + ".history", result, best)
    _write_echo(r["out"] + ".cfg", command, r)
    return 0


def _cmd_train(args) -> int:
    return _finetune(args, "train", SOURCE_TRAIN_DEFAULTS)


def _cmd_adapt(args) -> int:
    return _finetune(args, "adapt", TARGET_ADAPT_DEFAULTS)


_GENERATE_SCHEMA: dict[str, tuple] = {
    "model": (str, _REQUIRED),
    "in": (str, _REQUIRED),
    "out": (str, _REQUIRED),
    "raw_out": (str, ""),
    "prompted": (_bool, False),
    "template": (str, ""),
    "max_length": (int, 64),
    "strict": (_bool, False),
}


def _cmd_generate(args) -> int:
    r = _resolve(args, "generate", _GENERATE_SCHEMA)
    template = _template(r["template"])
    model = load_model(r["model"])
    pairs = load_pairs(r["in"], strict=r["strict"])
    raw, hypotheses = generate_responses(model, pairs, r["prompted"], template, r["max_length"])
    _ensure_parent(r["out"])
    with open(r["out"], "w", encoding="utf-8") as fh:
        for hyp in hypotheses:
            fh.write(hyp + "\n")
    if r["raw_out"]:
        _ensure_parent(r["raw_out"])
        with open(r["raw_out"], "w", encoding="utf-8") as fh:
            for text in raw:
                fh.write(text + "\n")
    _write_echo(r["out"] + ".cfg", "generate", r)
    return 0


_EVALUATE_SCHEMA: dict[str, tuple] = {
    "hyp": (str, _REQUIRED),
    "ref": (str, _REQUIRED),
    "report": (str, _REQUIRED),
    "system": (str, "system"),
    "target_vocab": (str, ""),
    "tokenizer": (_choice(*sorted(TOKENIZERS)), "13a"),
    "smoothing_epsilon": (float, 1e-2),
    "strict": (_bool, False),
}


def _cmd_evaluate(args) -> int:
    r = _resolve(args, "evaluate", _EVALUATE_SCHEMA)
    hypotheses = _read_lines(r["hyp"])
    ref_pairs = load_pairs(r["ref"], strict=r["strict"])
    references = [pair.response for pair in ref_pairs]
    if r["target_vocab"]:
        vocabulary = frozenset(tok for tok in _read_lines(r["target_vocab"]) if tok.strip())
    else:
        vocabulary = frozenset(tok for pair in ref_pairs for tok in (pair.context + " " + pair.response).split())
    tokenizer = TOKENIZERS[r["tokenizer"]]
    bleu = corpus_bleu(hypotheses, references, smoothing_epsilon=r["smoothing_epsilon"], tokenizer=tokenizer)
    distinct = distinct_report(hypotheses, tokenizer=tokenizer)
    legality = language_legality(hypotheses, vocabulary)
    _ensure_parent(r["report"])
    write_metric_report(r["report"], [report_record(r["system"], bleu, distinct, legality)])
    _write_echo(r["report"] + ".cfg", "evaluate", r)
    return 0


def _cmd_study(args) -> int:
    r = _resolve(args, "study", {"out": (str, _REQUIRED), **config_schema(StudyConfig())})
    report = run_forgetting_study(config_from(StudyConfig(), r))
    write_study_artifacts(report, r["out"])
    _write_echo(os.path.join(r["out"], "study.resolved.cfg"), "study", r)
    lines = [f"{'setting':<14}{'BLEU':>8}{'legality':>10}{'d1':>8}{'d2':>8}"]
    for name in SETTINGS:
        med = report.medians[name]
        lines.append(f"{name:<14}{med['score']:>8.2f}{med['legality']:>10.1f}{med['d1']:>8.1f}{med['d2']:>8.1f}")
    lines.append(f"prompted >= plain on median legality in both scenarios: {report.direction_holds()}")
    print("\n".join(lines))
    log.info("study wall time: %.1fs", report.wall_seconds)
    return 0


_HUMANEVAL_EXPORT_SCHEMA: dict[str, tuple] = {
    "hyp_a": (str, _REQUIRED),
    "hyp_b": (str, _REQUIRED),
    "system_a": (str, _REQUIRED),
    "system_b": (str, _REQUIRED),
    "test": (str, _REQUIRED),
    "sheet": (str, _REQUIRED),
    "key": (str, _REQUIRED),
    "n": (int, 100),
    "seed": (int, 0),
    "allow_cross_family": (_bool, False),
    "strict": (_bool, False),
}


def _cmd_humaneval_export(args) -> int:
    r = _resolve(args, "humaneval-export", _HUMANEVAL_EXPORT_SCHEMA)
    hyp_a = _read_lines(r["hyp_a"])
    hyp_b = _read_lines(r["hyp_b"])
    test = _load_single_language_corpus(r["test"], "test", r["strict"])
    _ensure_parent(r["sheet"])
    _ensure_parent(r["key"])
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
    _write_echo(r["sheet"] + ".cfg", "humaneval-export", r)
    return 0


_HUMANEVAL_AGGREGATE_SCHEMA: dict[str, tuple] = {
    "sheet": (_paths, _REQUIRED),
    "key": (str, _REQUIRED),
    "out": (str, ""),
    "language": (str, ""),
    "strict": (_bool, False),
}


def _cmd_humaneval_aggregate(args) -> int:
    r = _resolve(args, "humaneval-aggregate", _HUMANEVAL_AGGREGATE_SCHEMA)
    report = aggregate_votes(r["sheet"], r["key"], strict=r["strict"], language=r["language"])
    table = report.format_table()
    print(table)
    if r["out"]:
        _ensure_parent(r["out"])
        with open(r["out"], "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
        _write_echo(r["out"] + ".cfg", "humaneval-aggregate", r)
    return 0


# ---------------------------------------------------------------------------
# Parser.  Flags default to None so "explicitly given" is distinguishable
# from "absent"; the real defaults live in the schemas above.


def _add_common(sub) -> None:
    sub.add_argument("--config", help="flat key=value config file (echoes re-load here)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config entry (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossdial",
        description="Few-shot cross-lingual dialogue transfer: data, training, metrics, study.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", default=None, help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("gen-synthetic", help="generate the two-language synthetic corpus set")
    _add_common(p)
    p.add_argument("--out", help="output directory (required)")
    p.add_argument("--seed", type=int, help="corpus sampling seed (default 13)")
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("sample-fewshot", help="draw a deterministic few-shot subset from a train corpus")
    _add_common(p)
    p.add_argument("--in", help="input corpus file (required)")
    p.add_argument("--k", type=int, help="subset size (required)")
    p.add_argument("--seed", type=int, help="sampling seed (default 0)")
    p.add_argument("--out", help="output corpus file (required)")
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=_cmd_sample_fewshot)

    p = sub.add_parser("interleave", help="evenly interleave few-shot targets into an auxiliary stream")
    _add_common(p)
    p.add_argument("--aux", help="auxiliary corpus file (required)")
    p.add_argument("--tgt", help="target corpus file (required)")
    p.add_argument("--out", help="output corpus file, mixed languages (required)")
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=_cmd_interleave)

    p = sub.add_parser("format", help="render pairs to (source, target) training texts")
    _add_common(p)
    p.add_argument("--in", help="input corpus file (required)")
    p.add_argument("--out", help="output JSONL of formatted examples (required)")
    p.add_argument("--layout", choices=("prompted", "plain"), help="prompt layout (default prompted)")
    p.add_argument("--template", help="prompt template config file")
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=_cmd_format)

    p = sub.add_parser("pretrain", help="span-corruption pretraining on raw corpus text")
    _add_common(p)
    p.add_argument("--data", nargs="+", help="corpus files forming the pretraining pool (required)")
    p.add_argument("--out", help="output model file (required)")
    p.add_argument("--seed", type=int, help="init/corruption seed (default 0)")
    p.add_argument("--template", help="prompt template config file (supplies the sentinels)")
    p.add_argument("--corruption-rate", type=float, dest="corruption_rate")
    p.add_argument("--mean-span-length", type=float, dest="mean_span_length")
    p.add_argument("--embedding-size", type=int, dest="embedding_size")
    p.add_argument("--hidden-size", type=int, dest="hidden_size")
    p.add_argument("--eval-every", type=int, dest="eval_every")
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=_cmd_pretrain)

    for name, helptext in (
        ("train", "fine-tune a model on a corpus (source-stage defaults)"),
        ("adapt", "few-shot adaptation (target-stage defaults)"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        p.add_argument("--model", help="input model file (required)")
        p.add_argument("--train", help="training corpus file (required)")
        p.add_argument("--valid", help="validation corpus file for checkpoint selection (required)")
        p.add_argument("--out", help="output model file (required)")
        p.add_argument("--prompted", action="store_true", default=None, help="use the fixed-prompt layout")
        p.add_argument("--template", help="prompt template config file")
        p.add_argument("--eval-every", type=int, dest="eval_every")
        p.add_argument("--strict", action="store_true", default=None)
        p.set_defaults(func=_cmd_train if name == "train" else _cmd_adapt)

    p = sub.add_parser("generate", help="greedy generation for every context of a corpus")
    _add_common(p)
    p.add_argument("--model", help="model file (required)")
    p.add_argument("--in", help="corpus file supplying the contexts (required)")
    p.add_argument("--out", help="output text file, one hypothesis per line (required)")
    p.add_argument("--raw-out", dest="raw_out", help="also write the unextracted generations")
    p.add_argument("--prompted", action="store_true", default=None)
    p.add_argument("--template", help="prompt template config file")
    p.add_argument("--max-length", type=int, dest="max_length")
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("evaluate", help="score hypotheses against a reference corpus")
    _add_common(p)
    p.add_argument("--hyp", help="hypothesis text file, one per line (required)")
    p.add_argument("--ref", help="reference corpus file (required)")
    p.add_argument("--report", help="output metric report, JSONL (required)")
    p.add_argument("--system", help="system name recorded in the report")
    p.add_argument("--target-vocab", dest="target_vocab", help="one legal token per line (default: derive from the references)")
    p.add_argument("--tokenizer", choices=sorted(TOKENIZERS))
    p.add_argument("--smoothing-epsilon", type=float, dest="smoothing_epsilon")
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("study", help="run the 4-setting forgetting study over several seeds")
    p.add_argument("--config", "--spec", help="study config file (--spec is an alias)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seeds", help="comma-separated seed list (overrides the config)")
    p.add_argument("--out", help="output directory (required)")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("humaneval-export", help="export a blinded pairwise evaluation sheet")
    _add_common(p)
    p.add_argument("--hyp-a", dest="hyp_a", help="hypotheses of the first system (required)")
    p.add_argument("--hyp-b", dest="hyp_b", help="hypotheses of the second system (required)")
    p.add_argument("--system-a", dest="system_a", help="name of the first system (required)")
    p.add_argument("--system-b", dest="system_b", help="name of the second system (required)")
    p.add_argument("--test", help="test corpus file (required)")
    p.add_argument("--sheet", help="output blinded sheet, TSV (required)")
    p.add_argument("--key", help="output key file, TSV (required)")
    p.add_argument("--n", type=int, help="samples to draw (default 100)")
    p.add_argument("--seed", type=int, help="sampling/blinding seed (default 0)")
    p.add_argument("--allow-cross-family", dest="allow_cross_family", action="store_true", default=None)
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=_cmd_humaneval_export)

    p = sub.add_parser("humaneval-aggregate", help="unblind completed sheets and tally votes")
    _add_common(p)
    p.add_argument("--sheet", nargs="+", help="completed sheet file(s) (required)")
    p.add_argument("--key", help="key file from the export (required)")
    p.add_argument("--out", help="also write the table to this file")
    p.add_argument("--language", help="language label for the table")
    p.add_argument("--strict", action="store_true", default=None)
    p.set_defaults(func=_cmd_humaneval_aggregate)

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
        force=True,
    )
    try:
        return args.func(args)
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
