"""Acceptance gate: one test per committed behavior criterion.

``pytest tests/test_acceptance.py -v`` prints one pass/fail line per
criterion.  The regression values in criterion 7 were committed from the
first full-precision runs of the reference study (reproduced identically
across two runs) and must not be loosened without a recorded decision.
"""

import argparse
import dataclasses
import hashlib
import math
import platform
import shutil
import time
from collections import Counter

import numpy as np
import pytest

import crossdial.experiment as experiment
from crossdial.cli import build_parser, main
from crossdial.corpus import Corpus, DialoguePair
from crossdial.experiment import (
    ExperimentSpec,
    StudyConfig,
    format_pairs,
    run_forgetting_study,
    run_scenario,
    write_study_artifacts,
)
from crossdial.humaneval import WinRateReport, aggregate_votes, export_pairs, read_key, read_sheet
from crossdial.interleave import interleave_even
from crossdial.metrics import MetricError, corpus_bleu, distinct_n
from crossdial.model import (
    AttentiveSeq2Seq,
    ModelConfig,
    OptimizerConfig,
    Vocabulary,
    generate_greedy,
    gradient_check,
    make_training_batch,
    train,
)
from crossdial.prompting import DEFAULT_TEMPLATE, extract_response, format_prompted
from helpers import TINY_OPT, TINY_STUDY, distinct_oracle, tiny_setup, toy_model, train_on_scripted_losses, write_votes


# -- criterion 1: metric oracles ---------------------------------------------------


def test_criterion_1_metric_oracles():
    # identical corpora: unit precisions, unit brevity penalty, exact 100
    texts = ["det er et svar", "en hund løber hjem nu", "jeg kan godt lide te"]
    report = corpus_bleu(texts, texts)
    assert report.precisions == (100.0,) * 4
    assert report.score == 100.0
    assert report.bp == 1.0

    # short hypothesis: perfect unigram and bigram precision, penalized length
    # 2 vs 3; no trigrams or 4-grams exist, so they drop out of the mean
    short = corpus_bleu(["the cat"], ["the cat sat"])
    assert short.precisions[:2] == (100.0, 100.0)
    assert short.bp == pytest.approx(math.exp(-1 / 2), abs=1e-9)
    assert short.score == pytest.approx(100.0 * math.exp(-1 / 2), abs=1e-9)

    # distinct-n equals a brute-force n-gram oracle on randomized corpora
    rng = np.random.default_rng(7)
    alphabet = ["a", "b", "c", "det", "på", "x7"]
    for _ in range(50):
        n_texts = int(rng.integers(1, 7))
        budget = 100 // n_texts
        lengths = [int(rng.integers(1, budget + 1)) for _ in range(n_texts)]
        lengths[0] = max(lengths[0], 2)  # keep at least one bigram
        assert sum(lengths) <= 100
        hyps = [" ".join(rng.choice(alphabet, size=k).tolist()) for k in lengths]
        assert distinct_n(hyps, 1) == distinct_oracle(hyps, 1)
        assert distinct_n(hyps, 2) == distinct_oracle(hyps, 2)


# -- criterion 2: even interleaving ------------------------------------------------


def _stream(language, n, tag):
    pairs = tuple(DialoguePair(f"{tag} ctx {i}", f"{tag} svar {i}", language) for i in range(n))
    return Corpus(pairs=pairs, language=language)


def test_criterion_2_interleave_even_spacing():
    # the reference geometry: one target item after every 1000 auxiliary items
    mixed = interleave_even(_stream("en", 10000, "aux"), _stream("da", 10, "tgt"))
    assert len(mixed.pairs) == 10010
    tgt_positions = [i for i, p in enumerate(mixed.pairs) if p.language == "da"]
    assert tgt_positions == [1001 * i - 1 for i in range(1, 11)]  # 1-based 1001·i

    # randomized sizes: multiset equality, order preservation, exact spacing
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_tgt = int(rng.integers(1, 12))
        n_aux = int(rng.integers(n_tgt, 60))
        aux, tgt = _stream("en", n_aux, "aux"), _stream("da", n_tgt, "tgt")
        mixed = interleave_even(aux, tgt)
        assert Counter(mixed.pairs) == Counter(aux.pairs) + Counter(tgt.pairs)
        assert [p for p in mixed.pairs if p.language == "en"] == list(aux.pairs)
        assert [p for p in mixed.pairs if p.language == "da"] == list(tgt.pairs)
        block = n_aux // n_tgt
        positions = [i for i, p in enumerate(mixed.pairs) if p.language == "da"]
        assert positions == [(block + 1) * (k + 1) - 1 for k in range(n_tgt)]


# -- criterion 3: prompt round trip ------------------------------------------------


def test_criterion_3_prompt_round_trip():
    rng = np.random.default_rng(23)
    alphabet = ["hej", "svar", "tak", "a1", "7", "ja,", "nej!", "…", "-", "og"]
    for _ in range(1000):
        context = " ".join(rng.choice(alphabet, size=int(rng.integers(1, 9))).tolist())
        response = " ".join(rng.choice(alphabet, size=int(rng.integers(1, 9))).tolist())
        assert "<extra_id" not in response  # stays sentinel-free by construction
        ex = format_prompted(DialoguePair(context, response, "da"))
        assert ex.source.endswith(DEFAULT_TEMPLATE.sentinel0)
        assert extract_response(ex.target) == response


# -- criterion 4: analytic gradients vs finite differences --------------------------


def test_criterion_4_gradient_check_against_finite_differences():
    model = toy_model()
    batch = make_training_batch(
        model.vocabulary, [("a1 a2 a3 a4", "a4 a3 a2"), ("b1 b2", "b3 b1 b2")], max_length=16
    )
    report = gradient_check(model, batch, probe_count=50, seed=0)
    assert len(report.probes) == 50
    assert report.max_relative_error <= 1e-4

    # the check must also FAIL loudly when the analytic route is sabotaged
    _, cache = model.forward(batch)
    grads = model.backward(cache)
    grads["W_out"] = -grads["W_out"]
    start, _ = model.params.spans["W_out"]
    idx = start + int(np.argmax(np.abs(grads["W_out"]).ravel()))
    flipped = gradient_check(model, batch, flat_indices=[idx], analytic=grads)
    assert 1.5 < flipped.max_relative_error < 2.5  # sign flip reads ~2.0


# -- criterion 5: single-pair overfit ----------------------------------------------


def test_criterion_5_single_pair_overfit():
    model = toy_model(emb=16, hid=24, seed=0)
    data = [("a1 a2 a3 a4", "a4 a3 a2")]
    # 4 epochs of 50 copies at batch 1: 200 steps, validated every 50
    config = OptimizerConfig(learning_rate=0.01, epochs=4, batch_size=1)
    result = train(model, data * 50, data, config)
    assert len(result.train_losses) == 200
    assert [step for step, _ in result.valid_losses] == [0, 50, 100, 150, 200]
    batch = make_training_batch(model.vocabulary, data, max_length=16)
    assert result.model.nll(batch) < 0.1
    assert generate_greedy(result.model, "a1 a2 a3 a4", max_length=16).text == "a4 a3 a2"


# -- criterion 6: checkpoint selection ----------------------------------------------


def test_criterion_6_checkpoint_selection(monkeypatch):
    # train keeps the argmin with earliest-step ties, against an exhaustive scan
    rng = np.random.default_rng(42)
    vocab = Vocabulary(("<pad>", "<bos>", "<eos>", "<unk>", "a1"))
    scripted_model = AttentiveSeq2Seq(vocab, ModelConfig(embedding_size=4, hidden_size=4, seed=0))
    for _ in range(300):
        n = int(rng.integers(1, 40))
        losses = [float(x) for x in rng.choice([0.25, 0.5, 1.0, 2.0], size=n)]  # coarse grid forces ties
        result, snapshots = train_on_scripted_losses(monkeypatch, scripted_model, losses)
        assert result.valid_losses == list(enumerate(losses))
        expected = result.valid_losses[0]
        for step, loss in result.valid_losses[1:]:
            if loss < expected[1] or (loss == expected[1] and step < expected[0]):
                expected = (step, loss)
        assert (result.best.step, result.best.valid_loss) == expected
        # one snapshot per new strict best
        assert snapshots == sum(loss < min(losses[:i], default=math.inf) for i, loss in enumerate(losses))
    monkeypatch.undo()  # the scenario below trains for real

    # the joint-training scenario selects its checkpoint on AUXILIARY validation
    model, data = tiny_setup()

    seen = []

    def recording_train(model_, train_data, valid_data, config, **kwargs):
        result = train(model_, train_data, valid_data, config, **kwargs)
        seen.append({"valid_data": list(valid_data), "history": list(result.valid_losses)})
        return result

    monkeypatch.setattr(experiment, "train", recording_train)
    report = run_scenario(model, data, ExperimentSpec(scenario="mtl", prompted=False,
                                                      train_config=TINY_OPT, adapt_config=TINY_OPT))
    assert len(seen) == 1
    assert seen[0]["valid_data"] == format_pairs(data.aux_valid, prompted=False)
    assert seen[0]["valid_data"] != format_pairs(data.tgt_valid, prompted=False)
    assert report.selection_language == data.aux_valid.language
    best_loss = min(loss for _, loss in seen[0]["history"])
    assert report.selected_step == min(s for s, l in seen[0]["history"] if l == best_loss)
    assert report.selected_valid_loss == best_loss


# -- criterion 7: forgetting direction at desk scale ---------------------------------

# Committed regression values: median target-language legality per setting,
# from the first full-precision runs of the reference study (seeds 0, 1, 2).
PINNED_LEGALITY_MEDIANS = {
    "FS-XLT": 99.30555555555556,
    "FS-XLT_pmpt": 100.0,
    "MTL": 78.49462365591398,
    "MTL_pmpt": 100.0,
}

# sha256 of the reference study's artifacts at one BLAS thread, measured at
# 6707411; study.json's "selected_valid_loss" lines are dropped first, since
# they vary with the OpenBLAS kernel (ROADMAP item 8).  A change that means to
# move these bytes updates the constant in the same diff.
PINNED_ARTIFACT_SHA256 = {
    "report.jsonl": "720d5da3d37b9a3be57f8bd41b571ce1e2f1481f15ccb575371048d2a79a85fe",
    "samples.txt": "46fed27d5a47e11873ecef59afb27219ce24817cfcce1e6c76c5268205499f1f",
    "study.json": "5884455e2c0c5fd0d366c06339a22dd5c988fb08eca2a0efedbe40216ec2dbf9",
}

# The environment every pinned digest (here and PINNED_OUTPUT_SHA256) was
# measured in.  CI installs numpy unpinned, so a digest failure names both
# this one and the running one (ROADMAP item 8).
PINNED_ENVIRONMENT = "Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31"


def _environments() -> str:
    """The pinned and the running environment, for a digest failure message."""
    running = f"Python {platform.python_version()}, numpy {np.__version__}"
    try:  # an older numpy's show_config takes no mode: its version alone
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        running += f", {blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    return f"pinned in {PINNED_ENVIRONMENT}; running {running}"


def _pinned_sha256(path) -> str:
    """sha256 of a file, for study.json without its "selected_valid_loss" lines."""
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name == "study.json":
        lines = [line for line in lines if b'"selected_valid_loss"' not in line]
    return hashlib.sha256(b"".join(lines)).hexdigest()


def test_criterion_7_forgetting_direction_reference_study(tmp_path):
    start = time.monotonic()
    report = run_forgetting_study(StudyConfig())
    elapsed = time.monotonic() - start

    write_study_artifacts(report, str(tmp_path))
    for name, pinned in PINNED_ARTIFACT_SHA256.items():
        assert _pinned_sha256(tmp_path / name) == pinned, f"{name} ({_environments()})"

    medians = {name: report.medians[name]["legality"] for name in PINNED_LEGALITY_MEDIANS}
    for name, pinned in PINNED_LEGALITY_MEDIANS.items():
        assert medians[name] == pytest.approx(pinned, abs=1e-6), name

    # the committed direction: fixed-prompt variants keep (or improve) legality
    assert medians["FS-XLT_pmpt"] >= medians["FS-XLT"]
    assert medians["MTL_pmpt"] >= medians["MTL"]
    assert report.direction_holds()

    assert elapsed < 600.0, f"study took {elapsed:.1f}s; budget is 10 minutes"


# -- criterion 8: byte-identical CLI re-runs -----------------------------------------


def test_criterion_8_cli_reruns_byte_identical(cli_sweep, tmp_path, monkeypatch):
    # a copy of the sweep that keeps only its echoes and the hand-voted sheet
    # between them, then each echo alone re-runs its subcommand in sweep order
    copy = tmp_path / "rerun"
    shutil.copytree(cli_sweep.root, copy)
    for _, outputs in cli_sweep.steps:
        for path in outputs[:-1]:
            (copy / path).unlink()
    monkeypatch.chdir(copy)
    for command, outputs in cli_sweep.steps:
        assert main([command, "--config", str(outputs[-1])]) == 0, command
    for _, outputs in cli_sweep.steps:
        for path in outputs:
            assert (copy / path).read_bytes() == (cli_sweep.root / path).read_bytes(), path

    # nothing on the command surface escaped the sweep
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {command for command, _ in cli_sweep.steps} == set(sub.choices)


# Every echo of the sweep, byte for byte, when it runs from its output
# directory with relative paths.  A renamed, reordered, dropped or added
# key changes one of these texts.
PINNED_ECHOES = {
    "data/synthetic.resolved.cfg": """command = gen-synthetic
out = data
vocab_size = 16
n_train_aux = 40
n_fewshot_tgt = 6
n_valid = 8
n_test = 8
templates = 4
seed = 3
""",
    "few.jsonl.cfg": """command = sample-fewshot
in = data/aux_train.jsonl
k = 5
seed = 2
out = few.jsonl
""",
    "mixed.jsonl.cfg": """command = interleave
aux = data/aux_train.jsonl
tgt = data/tgt_train.jsonl
out = mixed.jsonl
""",
    "fmt.jsonl.cfg": """command = format
in = data/tgt_train.jsonl
out = fmt.jsonl
prompted = true
""",
    "pre.model.cfg": """command = pretrain
data = data/aux_train.jsonl,data/tgt_valid.jsonl
out = pre.model
seed = 1
embedding_size = 12
hidden_size = 16
learning_rate = 0.005
epochs = 1
batch_size = 8
""",
    "src.model.cfg": """command = train
model = pre.model
train = data/aux_train.jsonl
valid = data/aux_valid.jsonl
out = src.model
prompted = true
learning_rate = 0.005
epochs = 1
batch_size = 8
""",
    "adapted.model.cfg": """command = adapt
model = src.model
train = data/tgt_train.jsonl
valid = data/tgt_valid.jsonl
out = adapted.model
prompted = true
learning_rate = 0.005
epochs = 1
batch_size = 8
""",
    "hyps.txt.cfg": """command = generate
model = adapted.model
in = data/tgt_test.jsonl
out = hyps.txt
raw_out = raw.txt
prompted = true
max_length = 24
""",
    "report.jsonl.cfg": """command = evaluate
hyp = hyps.txt
ref = data/tgt_test.jsonl
report = report.jsonl
system = system
target_vocab = data/tgt_vocab.txt
""",
    "study/study.resolved.cfg": """command = study
out = study
synthetic.vocab_size = 12
synthetic.n_train_aux = 20
synthetic.n_fewshot_tgt = 4
synthetic.n_valid = 6
synthetic.n_test = 6
synthetic.templates = 2
pretrain.learning_rate = 0.005
pretrain.epochs = 1
pretrain.batch_size = 8
train.learning_rate = 0.003
train.epochs = 1
train.batch_size = 8
adapt.learning_rate = 0.006
adapt.epochs = 2
adapt.batch_size = 4
seeds = 0
max_generate = 6
""",
    "sheet.tsv.cfg": """command = humaneval-export
hyp_a = hyps.txt
hyp_b = hyps.txt
system_a = FS-XLT
system_b = FS-XLT_pmpt
test = data/tgt_test.jsonl
sheet = sheet.tsv
key = key.tsv
n = 6
seed = 4
allow_cross_family = false
""",
    "votes.txt.cfg": """command = humaneval-aggregate
sheet = done.tsv
key = key.tsv
out = votes.txt
language = da
""",
}


# sha256 of the sweep's outputs at one BLAS thread, measured at 35036e8, for
# the 21 that held on the host kernel and under OPENBLAS_CORETYPE Prescott,
# Nehalem, Sandybridge, Haswell and Zen; study.json is pinned as in criterion 7.
# The three .model files, src.model.history and adapted.model.history vary
# with the kernel (ROADMAP item 8) and are left out.
PINNED_OUTPUT_SHA256 = {
    "data/aux_train.jsonl": "f68277a8f7ce17c0377e8fdc79d48d58fe40d5dcad74ce6379b1f665251bc86f",
    "data/aux_valid.jsonl": "0664d285c4c49b64b4169e37ee568ef6ffb4945f624d17f741170002d8e02c9d",
    "data/aux_test.jsonl": "4c8b95b37ecffaaba2c48043e80584864ed4d9d630f3055c6d1993a9e29fedec",
    "data/tgt_train.jsonl": "89d25512864750a91ccdf4acde9df0f009c27ca3ce0469b17d463e0a0d72ba91",
    "data/tgt_valid.jsonl": "922504a81fdcd36ff89ef10726fae004aa652e5b15987ceeebd372f085d5e00a",
    "data/tgt_test.jsonl": "ed074d5773a9651bc58619f5e805f8ba877ed383934bffdbba4b8726c3010f36",
    "data/aux_vocab.txt": "bca183bf970de89ab5490ffe6e067a3f474f50583786843c9861f58ab2f6ccac",
    "data/tgt_vocab.txt": "6e84fa7cccdc4f8f9a7234f6d6f1d29400404909512f1a872c9ecef32ea41418",
    "few.jsonl": "74d63c9bcb5a563909f66392e311f982f6564df62b7266c0af8ce3fb0ca2b51a",
    "mixed.jsonl": "23c4def4707e69770bba31438e649ac300a307967c802e89611d8ed60cd9b0be",
    "fmt.jsonl": "c7535092f84e441234049ed03f2640920d981073df20e8c560bb56ef6b91da1b",
    "pre.model.history": "5913f26b419d290c8aa9b042aae8d1e20a4f16794870e20b4ac2a96d4ed0381d",
    "hyps.txt": "8dc8d4246b50673503315fd64e0eacac96d5e9586cb9ba91081b8dd5fa30819c",
    "raw.txt": "222dbacf09352d8b1e194dd2614ecef86ceee90214090bc63ea7372aaa0688fc",
    "report.jsonl": "18abd2aef39a438ac2a444d065002ce3b463516459aa43483a64b85c203a9c66",
    "study/report.jsonl": "648119810e519de74ac443e36af103cd2af0e2ee97646571e203c4a39e504fc0",
    "study/study.json": "75a94bf79e0607827a8a1258d8b776f716169071e512777e429c25cf7fe7023a",
    "study/samples.txt": "31b8d0bef10c8f6d977df14ae4882447ad78afcadb6c8add4ca1cac3cee293b1",
    "sheet.tsv": "e8e3a6b82d9acabbed2b77c9ca972cec02a5078487bb32519d35adf85228552d",
    "key.tsv": "8ae4db43c8451cba029d16b0a92695deec2236cba7ed9e6171e97911f698804f",
    "votes.txt": "e178dc162c5fb8ff580b6ac9b6929d4ad260e276fa7793113c800b3544d58720",
}


def test_criterion_8_echo_bytes_pinned(cli_sweep):
    root, outputs = cli_sweep.root, [path for _, paths in cli_sweep.steps for path in paths]
    echoes = {str(path): (root / path).read_text(encoding="utf-8") for path in outputs if path.suffix == ".cfg"}
    assert echoes == PINNED_ECHOES
    digests = {str(path): _pinned_sha256(root / path) for path in outputs if str(path) in PINNED_OUTPUT_SHA256}
    assert digests == PINNED_OUTPUT_SHA256, _environments()


# The tiny study at seed 0 loses the whole study when one setting decodes
# only empty responses: scoring raises instead of recording the run.
_LOST_STUDY = pytest.mark.xfail(
    strict=True, raises=MetricError,
    reason="known defect, ROADMAP item 1: one setting's empty output raises MetricError and loses the study",
)


@_LOST_STUDY
def test_study_survives_one_token_generation():
    run_forgetting_study(dataclasses.replace(TINY_STUDY, max_generate=1))


@_LOST_STUDY
def test_study_survives_a_diverging_learning_rate():
    run_forgetting_study(dataclasses.replace(
        TINY_STUDY,
        train=dataclasses.replace(TINY_STUDY.train, learning_rate=5.0),
        adapt=dataclasses.replace(TINY_STUDY.adapt, learning_rate=5.0),
    ))


# -- criterion 9: human evaluation round trip ----------------------------------------


def test_criterion_9_humaneval_round_trip(tmp_path):
    n = 8
    corpus = Corpus(
        pairs=tuple(DialoguePair(f"ctx {i}", f"svar {i}", "da") for i in range(n)),
        language="da",
    )
    sheet, key_path = tmp_path / "sheet.tsv", tmp_path / "key.tsv"
    export_pairs([f"a {i}" for i in range(n)], [f"b {i}" for i in range(n)],
                 "FS-XLT", "FS-XLT_pmpt", corpus, sheet_path=sheet, key_path=key_path,
                 n=n, seed=11)

    # inject a known vote multiset THROUGH the blinding: 3 A, 4 B, 1 neutral
    winners = ["FS-XLT", "FS-XLT_pmpt", "FS-XLT", "FS-XLT_pmpt",
               "neutral", "FS-XLT_pmpt", "FS-XLT", "FS-XLT_pmpt"]
    key = read_key(key_path)
    choices = ["neutral" if winner == "neutral" else ("left" if key[row["id"]][0] == winner else "right")
               for row, winner in zip(read_sheet(sheet), winners)]
    done = tmp_path / "done.tsv"
    write_votes(sheet, done, choices)

    tally = aggregate_votes(done, key_path)
    assert (tally.system_a, tally.system_b) == ("FS-XLT", "FS-XLT_pmpt")
    assert (tally.wins_a, tally.neutral, tally.wins_b) == (3, 1, 4)
    assert tally.total == n

    # historical tally renders with exact counts and integral percentages
    table = WinRateReport(system_a="FS-XLT", system_b="FS-XLT_pmpt",
                          wins_a=29, wins_b=62, neutral=9, language="da").format_table()
    assert table.splitlines() == [
        "language: da",
        "system       wins (100 judged)",
        "FS-XLT       29 (29%)",
        "Neutral      9 (9%)",
        "FS-XLT_pmpt  62 (62%)",
    ]
