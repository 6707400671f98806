"""Helpers that more than one test file uses, defined once.

A plain module rather than ``conftest.py`` fixtures: a Hypothesis test
cannot take a function-scoped fixture, and these are plain functions.
``conftest.py`` holds the one fixture the test files share: the CLI sweep
that criterion 8 and ``test_cli.py`` read, run once per session.
``reference.py`` holds the model as first written, per gate, per array and
per step, that every bit-exactness test compares against.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np

from crossdial.corpus import Corpus, DialoguePair, SyntheticSpec, generate_synthetic_bilingual
from crossdial.experiment import STUDY_ADAPT, STUDY_PRETRAIN, STUDY_TRAIN, ScenarioData, StudyConfig, template_texts
from crossdial.humaneval import read_sheet
from crossdial.kvconfig import coerce, config_from, config_schema, dump_kv
from crossdial.metrics import tokenize_13a
from crossdial.model import (
    CONTROL_TOKENS,
    AttentiveSeq2Seq,
    ModelConfig,
    OptimizerConfig,
    Vocabulary,
    make_training_batch,
    train,
)
from crossdial.prompting import DEFAULT_TEMPLATE

# The tiny study criterion 8's sweep runs; `tiny_setup` draws its corpus too.
TINY_STUDY = StudyConfig(
    synthetic=SyntheticSpec(vocab_size_per_language=12, n_train_aux=20, n_fewshot_tgt=4, n_valid=6, n_test=6,
                            template_count=2),
    pretrain=dataclasses.replace(STUDY_PRETRAIN, epochs=1),
    train=dataclasses.replace(STUDY_TRAIN, epochs=1),
    adapt=dataclasses.replace(STUDY_ADAPT, epochs=2),
    seeds=(0,),
    max_generate=6,
)

TINY_OPT = OptimizerConfig(learning_rate=5e-3, epochs=1, batch_size=8)


def set_args(config):
    """Every key of ``config`` as command-line ``--set`` items, one config line each."""
    entries = {key: value for key, (_, value) in config_schema(config).items()}
    return [arg for line in dump_kv(entries).splitlines() for arg in ("--set", line)]


def tiny_setup(seed=0):
    """The tiny study's corpus drawn at ``seed`` as scenario data, and a
    d=12, h=16 model over all its splits and the prompt template."""
    bundle = generate_synthetic_bilingual(dataclasses.replace(TINY_STUDY.synthetic, seed=seed))
    data = ScenarioData.from_synthetic(bundle)
    vocab = Vocabulary.build(
        [bundle.aux_train, bundle.aux_valid, bundle.aux_test, bundle.tgt_fewshot, bundle.tgt_valid, bundle.tgt_test],
        extra_texts=template_texts(DEFAULT_TEMPLATE),
    )
    model = AttentiveSeq2Seq(vocab, ModelConfig(embedding_size=12, hidden_size=16, seed=seed))
    return model, data


def train_long_batch():
    """The train_long benchmark's shape as (vocabulary, pairs, batch): B=32,
    S=51, T=27 and an 800-token vocabulary."""
    tokens = tuple(f"v{i}" for i in range(796))
    vocabulary = Vocabulary(CONTROL_TOKENS + tokens)
    rng = np.random.default_rng(0)
    pairs = [
        tuple(" ".join(rng.choice(tokens, size=int(rng.integers(low, high)))) for low, high in ((40, 51), (15, 26)))
        for _ in range(31)
    ]
    pairs.append((" ".join(tokens[:51]), " ".join(tokens[:26])))
    return vocabulary, pairs, make_training_batch(vocabulary, pairs)


def toy_vocabulary(extra=()):
    """The vocabulary of one ``aa`` and one ``ba`` pair: a1..a4 and b1..b3."""
    ca = Corpus(pairs=(DialoguePair("a1 a2 a3 a4", "a4 a3 a2", "aa"),), language="aa")
    cb = Corpus(pairs=(DialoguePair("b1 b2 b3", "b3 b1", "ba"),), language="ba")
    return Vocabulary.build([ca, cb], extra_texts=extra)


def toy_model(emb=8, hid=10, seed=3, extra=()):
    return AttentiveSeq2Seq(toy_vocabulary(extra), ModelConfig(embedding_size=emb, hidden_size=hid, seed=seed))


def from_kv(config, raw, source="<config>"):
    # the path the command line resolves raw entries by: coerce against the
    # config's schema, then config_from
    parsers = {key: parse for key, (parse, _) in config_schema(config).items()}
    return config_from(config, coerce(raw, parsers, source=source))


def distinct_oracle(hypotheses, n):
    """Brute-force distinct-n over every n-token window of the 13a tokens."""
    grams = []
    for hyp in hypotheses:
        tokens = tokenize_13a(hyp)
        grams.extend(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))
    return 100.0 * len(set(grams)) / len(grams)


def train_on_scripted_losses(monkeypatch, model, losses, steps_per_epoch=1):
    """``train`` with ``evaluate_nll`` returning ``losses`` in turn, one
    evaluation per epoch of ``steps_per_epoch`` zero-gradient steps; returns
    the result and the number of snapshots taken."""
    scripted = iter(losses)
    monkeypatch.setattr("crossdial.model.evaluate_nll", lambda *_: next(scripted))
    zero = SimpleNamespace(flat=np.zeros_like(model.params.flat))
    monkeypatch.setattr(model, "loss_and_grads", lambda batch: (1.0, zero))
    snapshots = []
    take = type(model).snapshot
    monkeypatch.setattr(model, "snapshot", lambda: snapshots.append(None) or take(model))
    config = OptimizerConfig(learning_rate=0.01, epochs=len(losses) - 1, batch_size=1)
    result = train(model, [("a1", "a1")] * steps_per_epoch, [("a1", "a1")], config)
    assert [loss for _, loss in result.valid_losses] == list(losses)
    return result, len(snapshots)


def write_votes(sheet, out, choices):
    """Copy ``sheet`` to ``out`` with row i's choice cell set to ``choices[i]``."""
    rows = read_sheet(sheet)
    assert len(rows) == len(choices)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["id", "context", "response_left", "response_right", "choice"]) + "\n")
        for row, choice in zip(rows, choices):
            fh.write(
                "\t".join([row["id"], row["context"], row["response_left"], row["response_right"], choice]) + "\n"
            )
