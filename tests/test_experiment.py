import dataclasses
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crossdial.experiment as experiment
from crossdial.corpus import DialoguePair
from crossdial.experiment import (
    ExperimentSpec,
    StudyConfig,
    StudyReport,
    format_pairs,
    run_scenario,
    template_texts,
    write_study_artifacts,
)
from crossdial.kvconfig import (
    ConfigError,
    config_schema,
    dump_kv,
    load_kv,
    parse_kv_text,
)
from crossdial.model import OptimizerConfig, train
from crossdial.prompting import DEFAULT_TEMPLATE
from helpers import TINY_OPT, TINY_STUDY, from_kv, tiny_setup


# -- plumbing ---------------------------------------------------------------


def test_format_pairs_layouts():
    pairs = [DialoguePair("hej du", "hej", "da")]
    assert format_pairs(pairs, prompted=False) == [("hej du", "hej")]
    (src, tgt), = format_pairs(pairs, prompted=True)
    assert src == "Context: hej du Response: <extra_id_0>"
    assert tgt == "<extra_id_0> hej <extra_id_1>"


def test_template_texts_cover_all_template_tokens():
    texts = template_texts(DEFAULT_TEMPLATE)
    assert DEFAULT_TEMPLATE.sentinel0 in texts
    assert DEFAULT_TEMPLATE.sentinel1 in texts
    assert DEFAULT_TEMPLATE.context_prefix in texts
    assert DEFAULT_TEMPLATE.response_prefix in texts


def test_experiment_spec_setting_names():
    configs = {"train_config": TINY_OPT, "adapt_config": TINY_OPT}
    assert ExperimentSpec(scenario="fs-xlt", prompted=False, **configs).setting_name == "FS-XLT"
    assert ExperimentSpec(scenario="fs-xlt", prompted=True, **configs).setting_name == "FS-XLT_pmpt"
    assert ExperimentSpec(scenario="mtl", prompted=False, **configs).setting_name == "MTL"
    assert ExperimentSpec(scenario="mtl", prompted=True, **configs).setting_name == "MTL_pmpt"
    with pytest.raises(ConfigError):
        ExperimentSpec(scenario="zero-shot", prompted=False, **configs)


# -- scenarios ---------------------------------------------------------------


def test_fs_xlt_selects_on_target_validation():
    model, data = tiny_setup()
    spec = ExperimentSpec(scenario="fs-xlt", prompted=True, train_config=TINY_OPT, adapt_config=TINY_OPT)
    report = run_scenario(model, data, spec)
    assert report.selection_language == data.tgt_valid.language
    assert report.setting == "FS-XLT_pmpt"
    assert len(report.hypotheses) == len(data.tgt_test)
    assert report.total_steps > 0


def test_mtl_trains_on_interleaved_stream(monkeypatch):
    model, data = tiny_setup()
    spec = ExperimentSpec(scenario="mtl", prompted=False, train_config=TINY_OPT, adapt_config=TINY_OPT)
    captured = {}

    def recording_train(model_, train_data, valid_data, config, **kwargs):
        captured["train_data"] = list(train_data)
        return train(model_, train_data, valid_data, config, **kwargs)

    monkeypatch.setattr(experiment, "train", recording_train)
    run_scenario(model, data, spec)
    n_aux, n_tgt = len(data.aux_train), len(data.tgt_train)
    assert len(captured["train_data"]) == n_aux + n_tgt
    # the target items sit at their interleaved block positions
    block = n_aux // n_tgt
    tgt_sources = {src for src, _ in format_pairs(data.tgt_train, prompted=False)}
    positions = [i for i, (src, _) in enumerate(captured["train_data"]) if src in tgt_sources]
    assert positions == [(block + 1) * (k + 1) - 1 for k in range(n_tgt)]


def test_scenario_seeds_are_reproducible():
    def run():
        model, data = tiny_setup(seed=1)
        spec = ExperimentSpec(scenario="fs-xlt", prompted=True, train_config=TINY_OPT, adapt_config=TINY_OPT, seed=1)
        return run_scenario(model, data, spec)

    a, b = run(), run()
    assert a.hypotheses == b.hypotheses
    assert a.bleu == b.bleu
    assert a.selected_step == b.selected_step


# -- config files ------------------------------------------------------------


def test_optimizer_config_from_kv_partial():
    cfg = from_kv(experiment.STUDY_TRAIN, {"learning_rate": "0.01", "epochs": "2"})
    assert cfg.learning_rate == 0.01
    assert cfg.epochs == 2
    assert cfg.batch_size == experiment.STUDY_TRAIN.batch_size


def test_optimizer_config_unknown_key():
    with pytest.raises(ConfigError, match="lr"):
        from_kv(experiment.STUDY_TRAIN, {"lr": "0.01"})


def test_optimizer_entries_round_trip():
    cfg = OptimizerConfig(learning_rate=0.007, epochs=3, batch_size=2)
    entries = {key: value for key, (_, value) in config_schema(cfg).items()}
    raw = parse_kv_text(dump_kv(entries))
    assert from_kv(experiment.STUDY_TRAIN, raw) == cfg


def test_study_config_round_trip():
    config = StudyConfig(
        synthetic=dataclasses.replace(TINY_STUDY.synthetic, seed=5),
        pretrain=OptimizerConfig(learning_rate=1e-3, epochs=2, batch_size=4),
        train=OptimizerConfig(learning_rate=2e-3, epochs=3, batch_size=4),
        adapt=OptimizerConfig(learning_rate=3e-3, epochs=4, batch_size=2),
        seeds=(4, 5),
        max_generate=32,
    )
    entries = {key: value for key, (_, value) in config_schema(config).items()}
    raw = parse_kv_text(dump_kv(entries))
    assert from_kv(StudyConfig(), raw) == config


def test_study_config_stage_prefixes():
    config = from_kv(StudyConfig(), {"pretrain.epochs": "9", "adapt.learning_rate": "0.5", "seeds": "3"})
    assert config.pretrain.epochs == 9
    assert config.adapt.learning_rate == 0.5
    assert config.train == experiment.STUDY_TRAIN  # untouched stage keeps defaults
    assert config.seeds == (3,)


def test_study_config_unknown_key_named():
    with pytest.raises(ConfigError, match="pretrain.lr"):
        from_kv(StudyConfig(), {"pretrain.lr": "0.1"})
    with pytest.raises(ConfigError, match="surprise"):
        from_kv(StudyConfig(), {"surprise": "1"})


def test_load_study_config(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text("synthetic.vocab_size = 15\ntrain.epochs = 7\nseeds = 1,2\n")
    config = from_kv(StudyConfig(), load_kv(path), source=str(path))
    assert config.synthetic.vocab_size_per_language == 15
    assert config.train.epochs == 7
    assert config.seeds == (1, 2)


def test_study_config_requires_seeds():
    with pytest.raises(ConfigError):
        StudyConfig(seeds=())
    with pytest.raises(ConfigError, match="seeds must be distinct, got 0,1,0"):
        StudyConfig(seeds=(0, 1, 0))


# -- artifacts ---------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_study():
    return experiment.run_forgetting_study(TINY_STUDY)


def test_study_runs_all_settings_per_seed(tiny_study):
    assert set(tiny_study.runs) == {"FS-XLT", "FS-XLT_pmpt", "MTL", "MTL_pmpt"}
    for reports in tiny_study.runs.values():
        assert len(reports) == 1
    assert set(tiny_study.medians["MTL"]) == {"score", "b1", "b2", "d1", "d2", "legality"}


def test_study_artifacts_shape(tmp_path, tiny_study):
    out = tmp_path / "study"
    write_study_artifacts(tiny_study, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "report.jsonl",
        "samples.txt",
        "study.json",
        "timing.log",
    ]
    records = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    assert {r["system"] for r in records} == {f"{name}@seed0" for name in tiny_study.runs}
    summary = json.loads((out / "study.json").read_text())
    assert summary["seeds"] == [0]
    scores = {"score", "b1", "b2", "d1", "d2", "legality"}
    selection = {"selected_step", "selected_valid_loss", "selection_language", "total_steps"}
    for name in tiny_study.runs:
        assert set(summary["medians"][name]) == scores
        (row,) = summary["per_seed"][name]
        assert set(row) == {"seed"} | scores | selection
    assert summary["direction_holds"] == tiny_study.direction_holds()
    assert "context:" in (out / "samples.txt").read_text()


def test_study_artifacts_deterministic(tmp_path, tiny_study):
    a, b = tmp_path / "a", tmp_path / "b"
    write_study_artifacts(tiny_study, a)
    write_study_artifacts(tiny_study, b)
    for name in ("report.jsonl", "study.json", "samples.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_study_median_is_numpy_median_bit_for_bit():
    # the study's medians come from statistics.median; np.median gave the same
    # bits: the middle value of an odd count, (a + b) / 2 of an even one
    rng = np.random.default_rng(0)
    for _ in range(3000):
        size = int(rng.integers(1, 13))
        values = rng.choice([rng.uniform(0, 100, size), rng.normal(0, 1e3, size), rng.integers(0, 4, size) * 0.5])
        values = [float(v) for v in values]
        assert float(statistics.median(values)).hex() == float(np.median(values)).hex(), values


def test_study_does_not_import_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma (about 2 MB of RSS); a fresh
    # interpreter running a one-seed study and its artifacts must not
    code = f"""
import sys
import crossdial.experiment as experiment
from crossdial.corpus import SyntheticSpec
from crossdial.experiment import StudyConfig
from crossdial.model import OptimizerConfig
config = {TINY_STUDY!r}
experiment.write_study_artifacts(experiment.run_forgetting_study(config), {str(tmp_path / "study")!r})
print("numpy.ma" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(experiment.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


def test_direction_holds_logic():
    def make(legalities):
        medians = {
            name: {"score": 0.0, "b1": 0.0, "b2": 0.0, "d1": 0.0, "d2": 0.0, "legality": leg}
            for name, leg in legalities.items()
        }
        return StudyReport(config=StudyConfig(), runs={}, medians=medians, wall_seconds=0.0)

    assert make({"FS-XLT": 90.0, "FS-XLT_pmpt": 95.0, "MTL": 70.0, "MTL_pmpt": 99.0}).direction_holds()
    assert make({"FS-XLT": 95.0, "FS-XLT_pmpt": 95.0, "MTL": 99.0, "MTL_pmpt": 99.0}).direction_holds()
    assert not make({"FS-XLT": 96.0, "FS-XLT_pmpt": 95.0, "MTL": 70.0, "MTL_pmpt": 99.0}).direction_holds()
    assert not make({"FS-XLT": 90.0, "FS-XLT_pmpt": 95.0, "MTL": 99.5, "MTL_pmpt": 99.0}).direction_holds()
