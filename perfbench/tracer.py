"""Span recorder that times calls into crossdial's public functions from outside.

The recorder wraps each entry point listed in ``TARGETS`` for the duration
of a ``with`` block.  A function is replaced in its defining module and in
every other loaded module that bound the same object on import (``experiment``
and ``cli`` do ``from .model import train, ...``), so no call escapes the
trace.  Methods are replaced on their class.  Nothing under ``src/`` is
edited.

Each span is ``[name, start, end, parent_index, attrs]``; spans stay in memory
until ``per_layer_metrics`` folds them into the benchmark's per-layer numbers.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# attrs callbacks record counts at the boundary where the work happens.


def _forward_attrs(args, kwargs, result):
    return {"tokens": args[1].token_count}


def _snapshot_attrs(args, kwargs, result):
    return {"bytes": sum(arr.nbytes for arr in result.values())}


def _generate_attrs(args, kwargs, result):
    # the loop appends a distribution per step and breaks on EOS before
    # appending the id, so one extra distribution marks an EOS ending
    steps = len(result.distributions)
    return {"steps": steps, "eos": int(steps > len(result.token_ids))}


def _corrupt_attrs(args, kwargs, result):
    return {"identity": int(result.identity_corruption)}


def _save_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _scenario_attrs(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return {"setting": spec.setting_name}


def _main_attrs(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": str(argv[0]) if argv else "", "rc": result}


# (span name, module, attribute path, attrs(args, kwargs, result) or None)
TARGETS = (
    ("model.forward", "crossdial.model", "AttentiveSeq2Seq.forward", _forward_attrs),
    ("model.backward", "crossdial.model", "AttentiveSeq2Seq.backward", None),
    ("model.loss_and_grads", "crossdial.model", "AttentiveSeq2Seq.loss_and_grads", _forward_attrs),
    ("model.snapshot", "crossdial.model", "AttentiveSeq2Seq.snapshot", _snapshot_attrs),
    ("model.adamw_step", "crossdial.model", "AdamW.step", None),
    ("model.evaluate_nll", "crossdial.model", "evaluate_nll", None),
    ("model.train", "crossdial.model", "train", None),
    ("model.pretrain_span_corruption", "crossdial.model", "pretrain_span_corruption", None),
    ("model.generate_greedy", "crossdial.model", "generate_greedy", _generate_attrs),
    ("model.generate_corpus", "crossdial.model", "generate_corpus", None),
    ("model.save_model", "crossdial.model", "save_model", _save_attrs),
    ("model.load_model", "crossdial.model", "load_model", None),
    ("prompting.corrupt_spans", "crossdial.prompting", "corrupt_spans", _corrupt_attrs),
    ("metrics.corpus_bleu", "crossdial.metrics", "corpus_bleu", None),
    ("metrics.distinct_report", "crossdial.metrics", "distinct_report", None),
    ("metrics.language_legality", "crossdial.metrics", "language_legality", None),
    ("corpus.generate_synthetic_bilingual", "crossdial.corpus", "generate_synthetic_bilingual", None),
    ("corpus.load_pairs", "crossdial.corpus", "load_pairs", None),
    ("corpus.save_pairs", "crossdial.corpus", "save_pairs", None),
    ("interleave.interleave_even", "crossdial.interleave", "interleave_even", None),
    ("experiment.run_scenario", "crossdial.experiment", "run_scenario", _scenario_attrs),
    ("experiment.run_forgetting_study", "crossdial.experiment", "run_forgetting_study", None),
    ("cli.main", "crossdial.cli", "main", _main_attrs),
    ("kvconfig.load_kv", "crossdial.kvconfig", "load_kv", None),
    ("humaneval.export_pairs", "crossdial.humaneval", "export_pairs", None),
    ("humaneval.aggregate_votes", "crossdial.humaneval", "aggregate_votes", None),
)

SETTINGS = ("FS-XLT", "FS-XLT_pmpt", "MTL", "MTL_pmpt")
SUBCOMMANDS = (
    "gen-synthetic", "pretrain", "train", "adapt", "generate", "evaluate",
    "humaneval-export", "humaneval-aggregate",
)
STAGES = ("pretrain", "train", "adapt", "generate", "score")

# name -> (unit, better); the order here is the order BENCHMARK.json lists.
PER_LAYER = {
    "model.forward.calls": ("count", "lower"),
    "model.forward.self_s": ("s", "lower"),
    "model.backward.self_s": ("s", "lower"),
    "model.adamw_step.calls": ("count", "lower"),
    "model.adamw_step.self_s": ("s", "lower"),
    "model.evaluate_nll.calls": ("count", "lower"),
    "model.evaluate_nll.self_s": ("s", "lower"),
    "model.evaluate_nll.s": ("s", "lower"),
    "model.evaluate_nll.tokens": ("tok", "lower"),
    "model.snapshot.calls": ("count", "lower"),
    "model.snapshot.bytes": ("B", "lower"),
    "model.train.self_s": ("s", "lower"),
    "model.pretrain_span_corruption.self_s": ("s", "lower"),
    "prompting.corrupt_spans.self_s": ("s", "lower"),
    "model.pretrain.dropped_frac": ("ratio", "lower"),
    "model.generate_greedy.calls": ("count", "lower"),
    "model.generate_greedy.steps": ("count", "lower"),
    "model.generate_greedy.self_s": ("s", "lower"),
    "model.generate_greedy.eos_frac": ("ratio", "higher"),
    "model.save_model.self_s": ("s", "lower"),
    "model.save_model.bytes": ("B", "lower"),
    "model.load_model.self_s": ("s", "lower"),
    "metrics.corpus_bleu.self_s": ("s", "lower"),
    "metrics.distinct_report.self_s": ("s", "lower"),
    "metrics.language_legality.self_s": ("s", "lower"),
    "corpus.generate_synthetic_bilingual.self_s": ("s", "lower"),
    "corpus.load_pairs.self_s": ("s", "lower"),
    "corpus.save_pairs.self_s": ("s", "lower"),
    "interleave.interleave_even.self_s": ("s", "lower"),
    "experiment.run_scenario.calls": ("count", "lower"),
    "experiment.run_scenario.self_s": ("s", "lower"),
    **{f"experiment.run_scenario.{s}.self_s": ("s", "lower") for s in SETTINGS},
    **{f"experiment.stage.{s}.s": ("s", "lower") for s in STAGES},
    **{f"cli.main.{c}.s": ("s", "lower") for c in SUBCOMMANDS},
    "kvconfig.load_kv.self_s": ("s", "lower"),
    "humaneval.export_pairs.self_s": ("s", "lower"),
    "humaneval.aggregate_votes.self_s": ("s", "lower"),
    "model.optimizer_steps": ("count", "lower"),
    "model.tokens_trained": ("tok", "higher"),
    "model.decode_steps": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_METRIC_SPANS = ("metrics.corpus_bleu", "metrics.distinct_report", "metrics.language_legality")


class Recorder:
    """Patch the targets on enter, restore them on exit; spans accumulate."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def __enter__(self) -> "Recorder":
        modules = [m for name, m in list(sys.modules.items()) if name == "crossdial" or name.startswith("crossdial.")]
        for name, modname, path, attrs in TARGETS:
            owner = sys.modules[modname]
            if "." in path:
                clsname, meth = path.split(".")
                cls = getattr(owner, clsname)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, attrs))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(name, original, attrs)
            patched = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapped)
                        patched += 1
            if not patched:
                raise RuntimeError(f"trace target {modname}.{path} was not bound anywhere")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def _ancestors(spans, index):
    parent = spans[index][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def exact_counts(spans) -> dict[str, int]:
    """The counts the coverage self-check compares against an untraced run."""
    calls: dict[str, int] = defaultdict(int)
    tokens = decode = 0
    for name, _, _, _, attrs in spans:
        calls[name] += 1
        if attrs is None:  # the call raised
            continue
        if name == "model.loss_and_grads":
            tokens += int(attrs["tokens"])
        elif name == "model.generate_greedy":
            decode += attrs["steps"]
    return {
        "model.optimizer_steps": calls["model.adamw_step"],
        "model.tokens_trained": tokens,
        "model.decode_steps": decode,
        "model.evaluate_nll.calls": calls["model.evaluate_nll"],
        "model.generate_greedy.calls": calls["model.generate_greedy"],
        "model.pretrain_span_corruption.calls": calls["model.pretrain_span_corruption"],
        "experiment.run_scenario.calls": calls["experiment.run_scenario"],
        "model.save_model.calls": calls["model.save_model"],
        "model.load_model.calls": calls["model.load_model"],
        "cli.main.calls": calls["cli.main"],
    }


def _stage_of(spans, index) -> str | None:
    """Which study stage a span's whole duration belongs to, if any."""
    name = spans[index][0]
    chain = [spans[a] for a in _ancestors(spans, index)]
    names = [s[0] for s in chain]
    if name == "model.pretrain_span_corruption":
        return "pretrain"
    if name == "model.train":
        if "model.pretrain_span_corruption" in names:
            return None
        scenario = next((a for a in _ancestors(spans, index) if spans[a][0] == "experiment.run_scenario"), None)
        if scenario is not None:
            earlier = sum(1 for j in range(scenario + 1, index)
                          if spans[j][0] == "model.train" and spans[j][3] == scenario)
            return "adapt" if earlier else "train"
        main = next((s for s in chain if s[0] == "cli.main"), None)
        return "adapt" if main is not None and (main[4] or {}).get("command") == "adapt" else "train"
    if name == "model.generate_corpus":
        return "generate"
    if name == "model.generate_greedy":
        return None if "model.generate_corpus" in names else "generate"
    if name in _METRIC_SPANS:
        return None if any(n in _METRIC_SPANS for n in names) else "score"
    if name == "model.evaluate_nll":
        return None if "model.train" in names else "score"
    return None


def per_layer_metrics(spans, units: int) -> dict[str, float]:
    """Fold spans into the PER_LAYER metrics; all but the ratios are per unit."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    values: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        took = end - start
        own = took - child_time[i]
        values[f"{name}.calls"] += 1
        values[f"{name}.self_s"] += own
        if name == "model.evaluate_nll":
            values["model.evaluate_nll.s"] += took
        stage = _stage_of(spans, i)
        if stage is not None:
            values[f"experiment.stage.{stage}.s"] += took
        if attrs is None:  # no callback, or the call raised
            continue
        if name == "model.forward" and parent >= 0 and spans[parent][0] == "model.evaluate_nll":
            values["model.evaluate_nll.tokens"] += attrs["tokens"]
        elif name in ("model.snapshot", "model.save_model"):
            values[f"{name}.bytes"] += attrs["bytes"]
        elif name == "model.generate_greedy":
            values["model.generate_greedy.steps"] += attrs["steps"]
            values["model.generate_greedy.eos_frac"] += attrs["eos"]
        elif name == "prompting.corrupt_spans":
            values["model.pretrain.dropped_frac"] += attrs["identity"]
        elif name == "experiment.run_scenario":
            values[f"experiment.run_scenario.{attrs['setting']}.self_s"] += own
        elif name == "cli.main":
            values[f"cli.main.{attrs['command']}.s"] += took
    values.update(exact_counts(spans))
    ratios = {
        "model.generate_greedy.eos_frac": values["model.generate_greedy.calls"],
        "model.pretrain.dropped_frac": values["prompting.corrupt_spans.calls"],
    }
    return {
        metric: (values[metric] / ratios[metric] if ratios[metric] else 0.0) if metric in ratios
        else values[metric] / units
        for metric in PER_LAYER
    }
