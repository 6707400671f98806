"""Scenario orchestration: staged fine-tuning runs and the forgetting study.

Two transfer scenarios are wired here, each in a plain and a prompted
variant (four settings total):

* fs-xlt  -- train on the auxiliary language, then adapt on the few target
             examples; checkpoint selection uses the matching validation
             language per stage (auxiliary, then target).
* mtl     -- interleave the few target examples evenly into the auxiliary
             stream and train once; checkpoint selection deliberately uses
             the AUXILIARY validation set, mirroring the common situation
             where no target validation data exists.

The study pretrains one model per seed with span corruption on both
languages' raw text, snapshots it, and replays all four settings from the
identical snapshot, so any difference between settings is caused by the
fine-tuning recipe alone.  Wall-clock timings are kept out of every
deterministic artifact (they go to a separate diagnostics log).

Each stage has one implementation, which the study and the stage
subcommands both run: ``pretrain_base`` (a model's vocabulary is its
pretraining pool's tokens plus the prompt strings), ``finetune`` and ``score``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .artifact import write_lines
from .corpus import Corpus, SyntheticSpec, generate_synthetic_bilingual
from .interleave import interleave_even
from .kvconfig import ConfigError
from .metrics import (
    BleuReport,
    DistinctReport,
    LegalityReport,
    corpus_bleu,
    distinct_report,
    language_legality,
    report_record,
    write_metric_report,
)
from .model import (
    AttentiveSeq2Seq,
    ModelConfig,
    OptimizerConfig,
    TrainResult,
    Vocabulary,
    generate_corpus,
    pretrain_span_corruption,
    train,
)
from .prompting import DEFAULT_TEMPLATE, PromptTemplate, extract_response, format_plain, format_prompted

log = logging.getLogger(__name__)

# setting name -> (scenario, prompted): the only declaration of the four settings
SETTINGS = {
    "FS-XLT": ("fs-xlt", False),
    "FS-XLT_pmpt": ("fs-xlt", True),
    "MTL": ("mtl", False),
    "MTL_pmpt": ("mtl", True),
}

# tokens greedy decoding may generate per response: the default of the study
# and of `crossdial generate`
MAX_GENERATE = 64


def template_texts(template: PromptTemplate) -> list[str]:
    """The template strings a model vocabulary must cover."""
    return [template.context_prefix, template.response_prefix, template.sentinel0, template.sentinel1]


def format_pairs(pairs: Iterable, prompted: bool) -> list[tuple[str, str]]:
    """Render dialogue pairs to (source, target) texts in one layout."""
    out = []
    for pair in pairs:
        ex = format_prompted(pair) if prompted else format_plain(pair)
        out.append((ex.source, ex.target))
    return out


def generate_responses(
    model: AttentiveSeq2Seq,
    pairs: Iterable,
    prompted: bool,
    max_length: int,
) -> tuple[list[str], list[str]]:
    """Greedy generation for every context of ``pairs`` in one layout.

    Returns the raw generations and the responses; the prompted layout
    extracts each response from between the sentinels.
    """
    sources = [source for source, _ in format_pairs(pairs, prompted)]
    raw = generate_corpus(model, sources, max_length=max_length)
    return raw, ([extract_response(text) for text in raw] if prompted else raw)


def pretrain_base(pool: Sequence[Corpus], model_config: ModelConfig, config: OptimizerConfig) -> TrainResult:
    """A fresh model pretrained with span corruption on ``pool``; its
    vocabulary is the pool's tokens plus the prompt strings."""
    vocabulary = Vocabulary.build(pool, extra_texts=template_texts(DEFAULT_TEMPLATE))
    model = AttentiveSeq2Seq(vocabulary, model_config)
    log.info("pretraining on %d raw texts", sum(len(corpus) for corpus in pool))
    return pretrain_span_corruption(model, pool, config, seed=model_config.seed)


def finetune(model: AttentiveSeq2Seq, train_pairs: Iterable, valid_pairs: Iterable, prompted: bool,
             config: OptimizerConfig) -> TrainResult:
    """Fine-tune in place in one layout and restore the lowest-valid-loss checkpoint."""
    result = train(model, format_pairs(train_pairs, prompted), format_pairs(valid_pairs, prompted), config)
    model.load_snapshot(result.best.params)
    return result


def score(hypotheses: Sequence[str], references: Sequence[str],
          vocabulary: Iterable[str]) -> tuple[BleuReport, DistinctReport, LegalityReport]:
    """BLEU against the references, distinct-n, and legality against the target vocabulary."""
    bleu = corpus_bleu(hypotheses, references)
    return bleu, distinct_report(hypotheses), language_legality(hypotheses, vocabulary)


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: scenario, layout, per-stage optimizer budgets."""

    scenario: str
    prompted: bool
    train_config: OptimizerConfig
    adapt_config: OptimizerConfig
    seed: int = 0
    max_generate: int = MAX_GENERATE

    def __post_init__(self) -> None:
        scenarios = tuple(dict.fromkeys(scenario for scenario, _ in SETTINGS.values()))
        if self.scenario not in scenarios:
            raise ConfigError(f"unknown scenario {self.scenario!r} (expected one of {scenarios})")

    @property
    def setting_name(self) -> str:
        return next(name for name, setting in SETTINGS.items() if setting == (self.scenario, self.prompted))


@dataclass(frozen=True)
class ScenarioData:
    """The five corpora a scenario consumes, plus the legality inventory."""

    aux_train: Corpus
    aux_valid: Corpus
    tgt_train: Corpus
    tgt_valid: Corpus
    tgt_test: Corpus
    target_vocabulary: frozenset[str]

    @classmethod
    def from_synthetic(cls, bundle) -> "ScenarioData":
        return cls(
            aux_train=bundle.aux_train,
            aux_valid=bundle.aux_valid,
            tgt_train=bundle.tgt_fewshot,
            tgt_valid=bundle.tgt_valid,
            tgt_test=bundle.tgt_test,
            target_vocabulary=bundle.tgt_vocabulary,
        )


@dataclass(frozen=True)
class RunReport:
    """Everything observable about one finished scenario run; ``SETTINGS[setting]``
    gives its scenario and layout."""

    setting: str
    seed: int
    contexts: tuple[str, ...]
    references: tuple[str, ...]
    hypotheses: tuple[str, ...]
    bleu: BleuReport
    distinct: DistinctReport
    legality: LegalityReport
    selected_step: int
    selected_valid_loss: float
    selection_language: str  # language of the validation set that picked the checkpoint
    total_steps: int
    wall_seconds: float  # diagnostics only; never written into deterministic artifacts

    def scores(self) -> dict[str, float]:
        """The six scores of the run; the study reports their medians."""
        return {
            "score": self.bleu.score,
            "b1": self.bleu.b1,
            "b2": self.bleu.b2,
            "d1": self.distinct.d1,
            "d2": self.distinct.d2,
            "legality": self.legality.legality,
        }

    def selection(self) -> dict[str, object]:
        """How the run's checkpoint was picked."""
        return {
            "selected_step": self.selected_step,
            "selected_valid_loss": self.selected_valid_loss,
            "selection_language": self.selection_language,
            "total_steps": self.total_steps,
        }

    def record(self) -> dict:
        """The run's metric-report record."""
        return report_record(f"{self.setting}@seed{self.seed}", self.bleu, self.distinct, self.legality)


def run_scenario(model: AttentiveSeq2Seq, data: ScenarioData, spec: ExperimentSpec) -> RunReport:
    """Run one setting on an already (pre)trained model, in place."""
    started = time.perf_counter()
    # (train pairs, selection validation set, budget) per stage
    if spec.scenario == "fs-xlt":
        stages = [
            (data.aux_train, data.aux_valid, spec.train_config),
            (data.tgt_train, data.tgt_valid, spec.adapt_config),
        ]
    else:
        stages = [(interleave_even(data.aux_train, data.tgt_train).pairs, data.aux_valid, spec.train_config)]

    total_steps = 0
    for train_pairs, valid, config in stages:
        result = finetune(model, train_pairs, valid, spec.prompted, config)
        best = result.best
        total_steps += result.train_losses[-1][0] if result.train_losses else 0
    selection_language = stages[-1][1].language  # the last stage's validation set picked the checkpoint

    _, hypotheses = generate_responses(model, data.tgt_test, spec.prompted, spec.max_generate)
    references = [pair.response for pair in data.tgt_test]

    bleu, distinct, legality = score(hypotheses, references, data.target_vocabulary)
    wall = time.perf_counter() - started
    log.info(
        "%s seed=%d: bleu %.2f, legality %.1f%% (selected step %d on %s valid)",
        spec.setting_name, spec.seed, bleu.score, legality.legality, best.step, selection_language,
    )
    return RunReport(
        setting=spec.setting_name,
        seed=spec.seed,
        contexts=tuple(pair.context for pair in data.tgt_test),
        references=tuple(references),
        hypotheses=tuple(hypotheses),
        bleu=bleu,
        distinct=distinct,
        legality=legality,
        selected_step=best.step,
        selected_valid_loss=best.valid_loss,
        selection_language=selection_language,
        total_steps=total_steps,
        wall_seconds=wall,
    )


# ---------------------------------------------------------------------------
# The forgetting study


REFERENCE_SYNTHETIC = SyntheticSpec()

# The stage budgets, also the defaults of `crossdial pretrain`, `train` and
# `adapt`: a from-scratch ~80k-parameter model needs these large learning rates.
STUDY_PRETRAIN = OptimizerConfig(learning_rate=5e-3, epochs=8, batch_size=8)
STUDY_TRAIN = OptimizerConfig(learning_rate=3e-3, epochs=4, batch_size=8)
STUDY_ADAPT = OptimizerConfig(learning_rate=6e-3, epochs=6, batch_size=4)


def _parse_seeds(value: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in value.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad seeds list {value!r} (expected comma-separated integers)") from None


@dataclass(frozen=True)
class StudyConfig:
    """The study's config; its fields declare the stage-prefixed keys
    (``synthetic.*``, ``pretrain.*``, ``train.*``, ``adapt.*``) and the
    top-level ``seeds`` and ``max_generate``.

    Each study seed draws its own corpus, so the synthetic spec's seed is
    not a key and is held at its default.
    """

    synthetic: SyntheticSpec = field(default=REFERENCE_SYNTHETIC, metadata={"omit": ("seed",)})
    pretrain: OptimizerConfig = STUDY_PRETRAIN
    train: OptimizerConfig = STUDY_TRAIN
    adapt: OptimizerConfig = STUDY_ADAPT
    seeds: tuple[int, ...] = field(default=(0, 1, 2), metadata={"parse": _parse_seeds})
    max_generate: int = MAX_GENERATE

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {','.join(map(str, self.seeds))}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if self.max_generate < 1:
            raise ConfigError(f"max_generate must be >= 1, got {self.max_generate}")
        if self.synthetic.seed != REFERENCE_SYNTHETIC.seed:
            object.__setattr__(self, "synthetic", dataclasses.replace(self.synthetic, seed=REFERENCE_SYNTHETIC.seed))


@dataclass
class StudyReport:
    config: StudyConfig
    runs: dict[str, tuple[RunReport, ...]]  # setting -> one report per seed
    medians: dict[str, dict[str, float]]  # setting -> metric -> median over seeds
    wall_seconds: float

    def direction_holds(self) -> bool:
        """Median target legality: does the prompted variant match or beat
        its plain counterpart in both scenarios?"""
        med = self.medians
        return (
            med["FS-XLT_pmpt"]["legality"] >= med["FS-XLT"]["legality"]
            and med["MTL_pmpt"]["legality"] >= med["MTL"]["legality"]
        )


def run_forgetting_study(config: StudyConfig = StudyConfig()) -> StudyReport:
    """Pretrain once per seed, then replay all four settings from the same
    snapshot; aggregate per-setting medians over seeds."""
    started = time.perf_counter()
    runs: dict[str, list[RunReport]] = {name: [] for name in SETTINGS}
    for seed in config.seeds:
        synth = dataclasses.replace(config.synthetic, seed=seed)
        bundle = generate_synthetic_bilingual(synth)
        data = ScenarioData.from_synthetic(bundle)
        model = pretrain_base([bundle.aux_train, bundle.tgt_valid], ModelConfig(seed=seed), config.pretrain).model
        base = model.snapshot()
        for name, (scenario, prompted) in SETTINGS.items():
            model.load_snapshot(base)
            spec = ExperimentSpec(
                scenario=scenario,
                prompted=prompted,
                train_config=config.train,
                adapt_config=config.adapt,
                seed=seed,
                max_generate=config.max_generate,
            )
            runs[name].append(run_scenario(model, data, spec))

    medians = {}
    for name, reports in runs.items():
        scores = [report.scores() for report in reports]
        # statistics.median: np.median's bits (the middle value, or (a + b) / 2)
        # without the numpy.ma import that np.median's first call makes
        medians[name] = {key: float(statistics.median([row[key] for row in scores])) for key in scores[0]}
    return StudyReport(
        config=config,
        runs={name: tuple(reports) for name, reports in runs.items()},
        medians=medians,
        wall_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Artifacts


def write_study_artifacts(report: StudyReport, out_dir: str) -> None:
    """Write the study's deterministic artifacts (plus a timing log).

    report.jsonl, study.json and samples.txt are byte-identical across
    re-runs with the same config; timing.log holds wall-clock diagnostics
    and is exempt from that guarantee.
    """
    records = [run.record() for name in SETTINGS for run in report.runs[name]]
    write_metric_report(os.path.join(out_dir, "report.jsonl"), records)

    summary = {
        "seeds": list(report.config.seeds),
        "medians": report.medians,
        "per_seed": {
            name: [{"seed": run.seed, **run.scores(), **run.selection()} for run in report.runs[name]]
            for name in SETTINGS
        },
        "direction_holds": report.direction_holds(),
    }
    study_json = json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2)
    write_lines(os.path.join(out_dir, "study.json"), [study_json])

    first = next(iter(SETTINGS))
    sample_count = min(3, len(report.runs[first][0].contexts))
    lines = []
    for i in range(sample_count):
        if i:
            lines.append("")  # a blank line between samples, none after the last
        lines.append(f"=== sample {i + 1} ===")
        lines.append(f"context:   {report.runs[first][0].contexts[i]}")
        lines.append(f"reference: {report.runs[first][0].references[i]}")
        for name in SETTINGS:
            lines.append(f"{name + ':':<13}{report.runs[name][0].hypotheses[i]}")
    write_lines(os.path.join(out_dir, "samples.txt"), lines)

    timing = [f"total {report.wall_seconds:.3f}s"]
    timing += [f"{name}@seed{run.seed} {run.wall_seconds:.3f}s" for name in SETTINGS for run in report.runs[name]]
    write_lines(os.path.join(out_dir, "timing.log"), timing)
