"""The four benchmark workloads: study_ref, train_long, decode_bulk, cli_pipeline.

Each workload has a ``setup(seed, smoke)`` that builds its inputs from the
workload seed and a ``unit(prepared)`` that does one fixed piece of timed
work and returns a ``UnitResult``.  Every unit of a run repeats the same
work, so its digest must repeat.  Calls into crossdial go through module
attributes, so the tracer's patches see them.

``UnitResult.counts`` are exact counts derived from the inputs and checked
against the outputs, never measured by tracing.  A traced run compares its
span counts to them.  That catches a missed patch, and any change in the
amount of work.  See WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from crossdial import cli as C
from crossdial import corpus as K
from crossdial import experiment as X
from crossdial import metrics as Met
from crossdial import model as M
from crossdial import prompting as P

# tests/test_acceptance.py::PINNED_LEGALITY_MEDIANS, compared with abs=1e-6.
PINNED_LEGALITY_MEDIANS = {
    "FS-XLT": 99.30555555555556,
    "FS-XLT_pmpt": 100.0,
    "MTL": 78.49462365591398,
    "MTL_pmpt": 100.0,
}
PIN_TOLERANCE = 1e-6
DEFAULT_SEED = 0  # workload seed whose study_ref is the committed StudyConfig()


@dataclass
class UnitResult:
    digest: str
    counts: dict[str, int]
    tokens: int  # numerator of tok_per_s
    token_seconds: float | None = None  # its denominator when not the unit's wall time
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _stage_error(errors: list[str], stage: str) -> None:
    errors.append(f"{stage}: {traceback.format_exc(limit=3).strip()}")


# ---------------------------------------------------------------------------
# Exact work counts.  These mirror the loop bounds of crossdial.model.train
# and pretrain_span_corruption (eval_every=None) so that a traced run can be
# checked against counts it did not measure.


def train_work(targets: list[str], config: M.OptimizerConfig) -> Counter:
    """Optimizer steps, trained target tokens and validation passes of train()."""
    if not targets or config.epochs == 0:
        return Counter(evals=1)
    per_epoch = sum(min(len(t.split()), config.max_length) + 1 for t in targets)  # +1: <eos>
    return Counter(
        steps=config.epochs * math.ceil(len(targets) / config.batch_size),
        tokens=config.epochs * per_epoch,
        evals=1 + config.epochs,
    )


def pretrain_work(corpora, config: M.OptimizerConfig, corruption_rate: float = 0.15) -> Counter:
    """train_work of span-corruption pretraining, whose corrupted targets are
    sentinel0 + span + sentinel1 with a span length fixed by the text length;
    identity corruptions (zero-length span) are dropped."""
    lengths = [len(f"{p.context} {p.response}".split()) for c in corpora for p in c]
    spans = [min(int(corruption_rate * n + 0.5), n) for n in lengths if n >= 2]
    kept = [s for s in spans if s > 0] * config.epochs
    if not kept:
        return Counter(evals=1)
    return Counter(
        steps=math.ceil(len(kept) / config.batch_size),
        tokens=sum(min(s + 2, config.max_length) + 1 for s in kept),
        evals=2,
    )


def _targets(pairs, prompted: bool) -> list[str]:
    return [target for _, target in X.format_pairs(pairs, prompted)]


# Smoke scale: the smallest study we found that yields non-empty output at
# workload seeds 0-5; smaller ones trip MetricError on empty hypotheses.
SMOKE_SYNTHETIC = K.SyntheticSpec(vocab_size_per_language=12, n_train_aux=40, n_fewshot_tgt=4, n_valid=6, n_test=6,
                                  template_count=2)
SMOKE_PRETRAIN = dataclasses.replace(X.STUDY_PRETRAIN, epochs=2)
SMOKE_TRAIN = dataclasses.replace(X.STUDY_TRAIN, epochs=2)
SMOKE_ADAPT = dataclasses.replace(X.STUDY_ADAPT, epochs=2)
SMOKE_MAX_GENERATE = 12


# ---------------------------------------------------------------------------
# study_ref: the committed reference study, 3 seeds x 4 settings.


def _study_config(seed: int, smoke: bool) -> X.StudyConfig:
    seeds = (3 * seed, 3 * seed + 1, 3 * seed + 2)
    if not smoke:
        return X.StudyConfig(seeds=seeds)  # seed 0 -> StudyConfig() exactly
    return X.StudyConfig(synthetic=SMOKE_SYNTHETIC, pretrain=SMOKE_PRETRAIN, train=SMOKE_TRAIN, adapt=SMOKE_ADAPT,
                         seeds=seeds, max_generate=SMOKE_MAX_GENERATE)


def _fine_tune_stages(scenario: str) -> tuple[str, ...]:
    return ("train", "adapt") if scenario == "fs-xlt" else ("train",)


@dataclass
class StudyPrepared:
    config: X.StudyConfig
    pinned: bool
    counts: dict[str, int]
    run_steps: dict[tuple[str, int], int]
    test_sizes: dict[int, int]


def study_setup(seed: int, smoke: bool) -> StudyPrepared:
    config = _study_config(seed, smoke)
    work = Counter()
    run_steps = {}
    test_sizes = {}
    for s in config.seeds:
        bundle = K.generate_synthetic_bilingual(dataclasses.replace(config.synthetic, seed=s))
        test_sizes[s] = len(bundle.tgt_test)
        pre = pretrain_work([bundle.aux_train, bundle.tgt_valid], config.pretrain)
        work += pre
        work["pretrains"] += 1
        for name, (scenario, prompted) in X.SETTINGS.items():
            if scenario == "fs-xlt":
                stages = [(bundle.aux_train, config.train), (bundle.tgt_fewshot, config.adapt)]
            else:  # interleaving keeps the multiset of pairs, which is all the counts need
                stages = [(tuple(bundle.aux_train) + tuple(bundle.tgt_fewshot), config.train)]
            fine = sum((train_work(_targets(pairs, prompted), cfg) for pairs, cfg in stages), Counter())
            run_steps[(name, s)] = fine["steps"]
            work += fine
            work["generate"] += len(bundle.tgt_test)
            work["scenarios"] += 1
    counts = {
        "model.optimizer_steps": work["steps"],
        "model.tokens_trained": work["tokens"],
        "model.evaluate_nll.calls": work["evals"],
        "model.generate_greedy.calls": work["generate"],
        "model.pretrain_span_corruption.calls": work["pretrains"],
        "experiment.run_scenario.calls": work["scenarios"],
    }
    return StudyPrepared(config, seed == DEFAULT_SEED and not smoke, counts, run_steps, test_sizes)


def study_unit(prep: StudyPrepared) -> UnitResult:
    seeds = prep.config.seeds
    stages = {(s, None, "pretrain") for s in seeds}
    for s in seeds:
        for name, (scenario, _) in X.SETTINGS.items():
            stages.update((s, name, st) for st in _fine_tune_stages(scenario) + ("generate", "score"))
    errors: list[str] = []
    try:
        report = X.run_forgetting_study(prep.config)
    except Exception:
        # the study is one call: a raising stage loses every stage's result
        _stage_error(errors, "run_forgetting_study")
        return UnitResult("", prep.counts, prep.counts["model.tokens_trained"],
                          attempted=len(stages), failed=len(stages), errors=errors)

    failed: set = set()
    runs = []
    for name in X.SETTINGS:
        scenario = X.SETTINGS[name][0]
        for run in report.runs[name]:
            ok = (
                len(run.hypotheses) == prep.test_sizes[run.seed]
                and run.total_steps == prep.run_steps[(name, run.seed)]
                and _finite(run.bleu.score, run.distinct.d1, run.distinct.d2, run.selected_valid_loss)
                and 0.0 <= run.legality.legality <= 100.0
            )
            if not ok:
                errors.append(f"{name}@seed{run.seed}: output check failed")
                failed.update((run.seed, name, st) for st in _fine_tune_stages(scenario) + ("generate", "score"))
            runs.append([name, run.seed, list(run.hypotheses), repr(run.bleu.score), repr(run.distinct.d1),
                         repr(run.distinct.d2), repr(run.legality.legality), run.selected_step,
                         repr(run.selected_valid_loss), run.total_steps])
    if prep.pinned:
        for name, pinned in PINNED_LEGALITY_MEDIANS.items():
            got = report.medians[name]["legality"]
            if abs(got - pinned) > PIN_TOLERANCE:
                errors.append(f"{name}: median legality {got!r} != pinned {pinned!r}")
                failed.update((s, name, "score") for s in seeds)
        if not report.direction_holds():
            errors.append("direction_holds() is False")
            failed.update(key for key in stages if key[2] == "score")
    return UnitResult(
        digest=_digest({"runs": runs, "medians": {k: {m: repr(v) for m, v in d.items()}
                                                 for k, d in report.medians.items()}}),
        counts=prep.counts,
        tokens=prep.counts["model.tokens_trained"],
        attempted=len(stages),
        failed=len(failed),
        errors=errors,
    )


# ---------------------------------------------------------------------------
# train_long: fixed train() steps at B=32 on long sequences and a large
# vocabulary, so forward/backward matmuls dominate.


@dataclass(frozen=True)
class TrainLongScale:
    vocab_per_language: int
    steps: int
    batch: int
    join: int  # synthetic pairs joined into one example


TRAIN_LONG = {False: TrainLongScale(400, 8, 32, 8), True: TrainLongScale(20, 2, 4, 4)}
TRAIN_LONG_VALID = 8


@dataclass
class TrainLongPrepared:
    model: M.AttentiveSeq2Seq
    initial: dict
    train_pairs: list[tuple[str, str]]
    valid_pairs: list[tuple[str, str]]
    config: M.OptimizerConfig
    counts: dict[str, int]


def _joined(pairs, join: int) -> list[tuple[str, str]]:
    """One example per ``join`` pairs: all contexts in, the first half's responses out."""
    out = []
    for i in range(0, len(pairs) - join + 1, join):
        group = pairs[i : i + join]
        out.append((" ".join(p.context for p in group), " ".join(p.response for p in group[: join // 2])))
    return out


def train_long_setup(seed: int, smoke: bool) -> TrainLongPrepared:
    scale = TRAIN_LONG[smoke]
    per_language = (scale.steps * scale.batch + TRAIN_LONG_VALID) // 2 * scale.join
    bundle = K.generate_synthetic_bilingual(K.SyntheticSpec(
        vocab_size_per_language=scale.vocab_per_language, n_train_aux=per_language,
        n_fewshot_tgt=1, n_valid=1, n_test=per_language, seed=seed))
    aux, tgt = _joined(bundle.aux_train.pairs, scale.join), _joined(bundle.tgt_test.pairs, scale.join)
    examples = [ex for pair in zip(aux, tgt) for ex in pair]  # every batch mixes both languages
    valid, train_pairs = examples[:TRAIN_LONG_VALID], examples[TRAIN_LONG_VALID:]
    vocabulary = M.Vocabulary.build([bundle.aux_train, bundle.tgt_test])
    model = M.AttentiveSeq2Seq(vocabulary, M.ModelConfig(seed=seed))
    config = M.OptimizerConfig(learning_rate=1e-3, epochs=1, batch_size=scale.batch)
    work = train_work([t for _, t in train_pairs], config)
    counts = {
        "model.optimizer_steps": work["steps"],
        "model.tokens_trained": work["tokens"],
        "model.evaluate_nll.calls": work["evals"],
    }
    return TrainLongPrepared(model, model.snapshot(), train_pairs, valid, config, counts)


def train_long_unit(prep: TrainLongPrepared) -> UnitResult:
    errors: list[str] = []
    prep.model.load_snapshot(prep.initial)
    try:
        result = M.train(prep.model, prep.train_pairs, prep.valid_pairs, prep.config)
    except Exception:
        _stage_error(errors, "train")
        return UnitResult("", prep.counts, prep.counts["model.tokens_trained"], attempted=1, failed=1, errors=errors)
    ok = (
        len(result.train_losses) == prep.counts["model.optimizer_steps"]
        and len(result.valid_losses) == prep.counts["model.evaluate_nll.calls"]
        and _finite(*(loss for _, loss in result.valid_losses))
    )
    if not ok:
        errors.append("train: step or validation counts differ from the plan, or a loss is not finite")
    return UnitResult(
        digest=_digest({
            "params": hashlib.sha256(prep.model.parameters_flat().tobytes()).hexdigest(),
            "train": [repr(loss) for _, loss in result.train_losses],
            "valid": [repr(loss) for _, loss in result.valid_losses],
        }),
        counts=prep.counts,
        tokens=prep.counts["model.tokens_trained"],
        attempted=1,
        failed=0 if ok else 1,
        errors=errors,
    )


# ---------------------------------------------------------------------------
# decode_bulk: one pretrained and fine-tuned FS-XLT_pmpt model; the timed
# phase is forward-only: greedy decoding, batched NLL and the metrics.


@dataclass(frozen=True)
class DecodeScale:
    synthetic: K.SyntheticSpec
    pretrain: M.OptimizerConfig
    train: M.OptimizerConfig
    adapt: M.OptimizerConfig
    contexts: int
    max_generate: int


DECODE = {
    False: DecodeScale(X.REFERENCE_SYNTHETIC, X.STUDY_PRETRAIN, X.STUDY_TRAIN, X.STUDY_ADAPT, 1024, 64),
    True: DecodeScale(SMOKE_SYNTHETIC, SMOKE_PRETRAIN, SMOKE_TRAIN, SMOKE_ADAPT, 16, SMOKE_MAX_GENERATE),
}
DECODE_NLL = M.OptimizerConfig(learning_rate=1.0, epochs=0, batch_size=32)  # only batch/length are read
# The model is the same for every workload seed; the seed picks only the
# contexts.  A per-seed model decodes outputs of different lengths, which
# spread wall_s over seeds by 0.21 (quartile distance over median).
DECODE_MODEL_SEED = 0
FRESH_SEED_OFFSET = 1_000_003  # fresh contexts come from a stream the model never trained on


@dataclass
class DecodePrepared:
    model: M.AttentiveSeq2Seq
    pairs: list[tuple[str, str]]
    references: list[str]
    target_vocabulary: frozenset
    max_generate: int
    setup_attempted: int
    setup_failed: int
    errors: list[str]


def decode_setup(seed: int, smoke: bool) -> DecodePrepared:
    scale = DECODE[smoke]
    bundle = K.generate_synthetic_bilingual(dataclasses.replace(scale.synthetic, seed=DECODE_MODEL_SEED))
    data = X.ScenarioData.from_synthetic(bundle)
    vocabulary = M.Vocabulary.build(
        [bundle.aux_train, bundle.aux_valid, bundle.aux_test, bundle.tgt_fewshot, bundle.tgt_valid, bundle.tgt_test],
        extra_texts=X.template_texts(P.DEFAULT_TEMPLATE),
    )
    model = M.AttentiveSeq2Seq(vocabulary, M.ModelConfig(seed=DECODE_MODEL_SEED))
    fresh = K.generate_synthetic_bilingual(dataclasses.replace(
        scale.synthetic, n_train_aux=1, n_fewshot_tgt=1, n_valid=1, n_test=scale.contexts,
        seed=FRESH_SEED_OFFSET + seed)).tgt_test
    prep = DecodePrepared(model, X.format_pairs(fresh, prompted=True), [p.response for p in fresh],
                          bundle.tgt_vocabulary, scale.max_generate, 5, 0, [])
    # stages: pretrain, then run_scenario's train, adapt, generate and score
    try:
        M.pretrain_span_corruption(model, [bundle.aux_train, bundle.tgt_valid], scale.pretrain, seed=DECODE_MODEL_SEED)
    except Exception:
        _stage_error(prep.errors, "pretrain")
        prep.setup_failed = 5
        return prep
    try:
        X.run_scenario(model, data, X.ExperimentSpec("fs-xlt", True, scale.train, scale.adapt,
                                                     seed=DECODE_MODEL_SEED, max_generate=scale.max_generate))
    except Exception:
        _stage_error(prep.errors, "run_scenario")
        prep.setup_failed = 4
    return prep


def decode_unit(prep: DecodePrepared) -> UnitResult:
    errors: list[str] = []
    attempted = 2  # generate, score
    if prep.setup_failed:
        return UnitResult("", {}, 1, attempted=attempted, failed=attempted, errors=["setup failed"])
    counts = {"model.generate_greedy.calls": len(prep.pairs), "model.evaluate_nll.calls": 1}
    try:
        start = time.perf_counter()
        results = [M.generate_greedy(prep.model, source, max_length=prep.max_generate) for source, _ in prep.pairs]
        gen_s = time.perf_counter() - start
    except Exception:
        _stage_error(errors, "generate")
        return UnitResult("", counts, 1, attempted=attempted, failed=2, errors=errors)
    steps = sum(len(r.distributions) for r in results)
    counts["model.decode_steps"] = steps
    hypotheses = [P.extract_response(r.text) for r in results]
    try:
        nll = M.evaluate_nll(prep.model, prep.pairs, DECODE_NLL)
        bleu = Met.corpus_bleu(hypotheses, prep.references)
        distinct = Met.distinct_report(hypotheses)
        legality = Met.language_legality(hypotheses, prep.target_vocabulary)
    except Exception:
        _stage_error(errors, "score")
        return UnitResult("", counts, steps, gen_s, attempted=attempted, failed=1, errors=errors)
    ok = _finite(nll, bleu.score, distinct.d1, distinct.d2) and 0.0 <= legality.legality <= 100.0
    if not ok:
        errors.append("score: a metric is out of range")
    return UnitResult(
        digest=_digest({"hyp": hypotheses, "nll": repr(nll), "bleu": repr(bleu.score), "d1": repr(distinct.d1),
                        "d2": repr(distinct.d2), "legality": repr(legality.legality)}),
        counts=counts,
        tokens=steps,
        token_seconds=gen_s,
        attempted=attempted,
        failed=0 if ok else 1,
        errors=errors,
    )


# ---------------------------------------------------------------------------
# cli_pipeline: crossdial.cli.main in-process, both layouts, through files.


@dataclass(frozen=True)
class CliScale:
    synthetic: K.SyntheticSpec  # its seed is replaced by the workload seed
    model: tuple[str, ...]  # extra pretrain arguments
    pretrain: M.OptimizerConfig
    train: M.OptimizerConfig
    adapt: M.OptimizerConfig
    humaneval_n: int


CLI = {
    False: CliScale(
        K.SyntheticSpec(n_train_aux=64, n_valid=16, n_test=32), (),
        dataclasses.replace(X.STUDY_PRETRAIN, epochs=4),
        dataclasses.replace(X.STUDY_TRAIN, epochs=4),
        X.STUDY_ADAPT,
        16,
    ),
    True: CliScale(
        K.SyntheticSpec(vocab_size_per_language=16, n_train_aux=40, n_fewshot_tgt=6, n_valid=8, n_test=8),
        ("--embedding-size", "12", "--hidden-size", "16"),
        SMOKE_PRETRAIN, SMOKE_TRAIN, SMOKE_ADAPT,
        6,
    ),
}
LAYOUTS = (("plain", "FS-XLT", False), ("prompted", "FS-XLT_pmpt", True))


@dataclass
class CliPrepared:
    seed: int
    scale: CliScale
    base: str  # working directory inside the benchmark's own state directory
    counts: dict[str, int]
    model_work: dict[str, Counter]  # output model -> expected steps/evals of its stage


def _opt_entries(config: M.OptimizerConfig) -> str:
    return "".join(f"{f.name} = {getattr(config, f.name)}\n" for f in dataclasses.fields(config))


def cli_setup(seed: int, smoke: bool, state_dir: str) -> CliPrepared:
    scale = CLI[smoke]
    base = os.path.join(state_dir, f"cli-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(os.path.join(base, "cfg"))
    for stage in ("pretrain", "train", "adapt"):
        with open(os.path.join(base, "cfg", f"{stage}.cfg"), "w", encoding="utf-8") as fh:
            fh.write(_opt_entries(getattr(scale, stage)))
    # the corpora gen-synthetic will write, rebuilt here to derive the exact counts
    bundle = K.generate_synthetic_bilingual(dataclasses.replace(scale.synthetic, seed=seed))
    total = Counter()
    model_work = {}
    for layout, _, prompted in LAYOUTS:
        model_work[f"{layout}/base.model"] = pretrain_work([bundle.aux_train, bundle.tgt_valid], scale.pretrain)
        model_work[f"{layout}/src.model"] = train_work(_targets(bundle.aux_train, prompted), scale.train)
        model_work[f"{layout}/final.model"] = train_work(_targets(bundle.tgt_fewshot, prompted), scale.adapt)
        total["generate"] += len(bundle.tgt_test)
    for work in model_work.values():
        total += work
    counts = {
        "model.optimizer_steps": total["steps"],
        "model.tokens_trained": total["tokens"],
        "model.evaluate_nll.calls": total["evals"],
        "model.generate_greedy.calls": total["generate"],
        "model.pretrain_span_corruption.calls": len(LAYOUTS),
        "model.save_model.calls": 3 * len(LAYOUTS),
        "model.load_model.calls": 3 * len(LAYOUTS),
        "cli.main.calls": 3 + 5 * len(LAYOUTS),
    }
    return CliPrepared(seed, scale, base, counts, model_work)


def _cli_commands(prep: CliPrepared) -> list[list[str]]:
    s = str(prep.seed)
    spec = prep.scale.synthetic
    sizes = {"vocab_size": spec.vocab_size_per_language, "n_train_aux": spec.n_train_aux,
             "n_fewshot_tgt": spec.n_fewshot_tgt, "n_valid": spec.n_valid, "n_test": spec.n_test,
             "templates": spec.template_count}
    cmds = [["gen-synthetic", "--out", "data", "--seed", s, *(a for k, v in sizes.items() for a in ("--set", f"{k}={v}"))]]
    for layout, setting, prompted in LAYOUTS:
        flag = ["--prompted"] if prompted else []
        cmds += [
            ["pretrain", "--config", "../cfg/pretrain.cfg", "--data", "data/aux_train.jsonl", "data/tgt_valid.jsonl",
             "--out", f"{layout}/base.model", "--seed", s, *prep.scale.model],
            ["train", "--config", "../cfg/train.cfg", "--model", f"{layout}/base.model",
             "--train", "data/aux_train.jsonl", "--valid", "data/aux_valid.jsonl", "--out", f"{layout}/src.model", *flag],
            ["adapt", "--config", "../cfg/adapt.cfg", "--model", f"{layout}/src.model",
             "--train", "data/tgt_train.jsonl", "--valid", "data/tgt_valid.jsonl", "--out", f"{layout}/final.model",
             *flag],
            ["generate", "--model", f"{layout}/final.model", "--in", "data/tgt_test.jsonl", "--out", f"{layout}/hyps.txt",
             "--raw-out", f"{layout}/raw.txt", "--max-length", "24", *flag],
            ["evaluate", "--hyp", f"{layout}/hyps.txt", "--ref", "data/tgt_test.jsonl", "--report",
             f"{layout}/report.jsonl", "--target-vocab", "data/tgt_vocab.txt", "--system", setting],
        ]
    cmds.append(["humaneval-export", "--hyp-a", "plain/hyps.txt", "--hyp-b", "prompted/hyps.txt",
                 "--system-a", "FS-XLT", "--system-b", "FS-XLT_pmpt", "--test", "data/tgt_test.jsonl",
                 "--sheet", "he/sheet.tsv", "--key", "he/key.tsv", "--n", str(prep.scale.humaneval_n), "--seed", s])
    cmds.append(["humaneval-aggregate", "--sheet", "he/done.tsv", "--key", "he/key.tsv", "--out", "he/votes.txt",
                 "--language", "ba"])
    return cmds


def _fill_votes(seed: int) -> None:
    """Complete the exported sheet with seeded votes, as a rater would."""
    with open("he/sheet.tsv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    votes = np.random.default_rng(seed).choice(["left", "right", "neutral"], size=len(lines) - 1)
    with open("he/done.tsv", "w", encoding="utf-8") as fh:
        fh.write("\n".join([lines[0]] + [row + str(v) for row, v in zip(lines[1:], votes)]) + "\n")


def _history_work(path: str) -> Counter:
    """Optimizer steps and validation passes as the .history file records them."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    evals = [r for r in records if "valid_loss" in r]
    return Counter(steps=evals[-1]["step"], evals=len(evals))


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def cli_unit(prep: CliPrepared) -> UnitResult:
    work = os.path.join(prep.base, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    commands = _cli_commands(prep)
    errors: list[str] = []
    done = 0
    cwd = os.getcwd()
    os.chdir(work)  # relative paths keep the config echoes identical across checkouts
    try:
        for argv in commands:
            if argv[0] == "humaneval-aggregate":
                _fill_votes(prep.seed)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = C.main(argv)
            if rc != 0:
                errors.append(f"{argv[0]}: exit code {rc}")
                break  # every later stage depends on this one's files
            done += 1
        failed = len(commands) - done
        if not failed:
            for model_path, expected in prep.model_work.items():
                if _history_work(model_path + ".history") != Counter(steps=expected["steps"], evals=expected["evals"]):
                    errors.append(f"{model_path}: steps/evaluations differ from the plan")
                    failed += 1
            for layout, _, _ in LAYOUTS:
                with open(f"{layout}/hyps.txt", encoding="utf-8") as fh:
                    if len(fh.read().splitlines()) != prep.counts["model.generate_greedy.calls"] // len(LAYOUTS):
                        errors.append(f"{layout}: hypothesis count differs from the test corpus")
                        failed += 1
    finally:
        os.chdir(cwd)
    return UnitResult(
        digest=_tree_digest(work) if not failed else "",
        counts=prep.counts,
        tokens=prep.counts["model.tokens_trained"],
        attempted=len(commands),
        failed=failed,
        errors=errors,
    )


def cli_teardown(prep: CliPrepared) -> None:
    shutil.rmtree(prep.base, ignore_errors=True)


@dataclass(frozen=True)
class Workload:
    setup: object  # (seed, smoke, state_dir) -> prepared
    unit: object  # prepared -> UnitResult
    teardown: object = None


WORKLOADS = {
    "study_ref": Workload(lambda seed, smoke, _: study_setup(seed, smoke), study_unit),
    "train_long": Workload(lambda seed, smoke, _: train_long_setup(seed, smoke), train_long_unit),
    "decode_bulk": Workload(lambda seed, smoke, _: decode_setup(seed, smoke), decode_unit),
    "cli_pipeline": Workload(cli_setup, cli_unit, cli_teardown),
}
