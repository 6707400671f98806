"""Every file writer: exact bytes, and a missing parent directory is created."""

import pytest

from crossdial.corpus import DialoguePair, save_pairs
from crossdial.experiment import SETTINGS, RunReport, StudyConfig, StudyReport, write_study_artifacts
from crossdial.humaneval import PairedSample, write_key, write_sheet
from crossdial.kvconfig import write_kv
from crossdial.metrics import BleuReport, DistinctReport, LegalityReport, report_record, write_metric_report

# binary-exact scores, so the bytes below hold on every BLAS kernel
_BLEU = BleuReport(precisions=(50.0, 25.0, 12.5, 0.0), score=6.25, bp=0.75)
_DISTINCT = DistinctReport(d1=87.5, d2=100.0)
_LEGALITY = LegalityReport(legality=62.5)
_SAMPLES = [PairedSample("s1", "hej du", "svar æ", "svar b", "FS-XLT", "FS-XLT_pmpt")]


def _study_report() -> StudyReport:
    runs = {
        name: (RunReport(setting=name, seed=0, contexts=("c1", "c2"), references=("r1", "r2"),
                         hypotheses=(f"{name} h1", f"{name} h2"), bleu=_BLEU, distinct=_DISTINCT,
                         legality=_LEGALITY, selected_step=4, selected_valid_loss=1.5,
                         selection_language="ba", total_steps=8, wall_seconds=0.25),)
        for name in SETTINGS
    }
    medians = {name: runs[name][0].scores() for name in SETTINGS}
    return StudyReport(config=StudyConfig(seeds=(0,)), runs=runs, medians=medians, wall_seconds=1.0)


_RECORD = ('{"b1": 50.0, "b2": 25.0, "bp": 0.75, "d1": 87.5, "d2": 100.0, "legality": 62.5, "score": 6.25, '
           '"smoothing_epsilon": 0.01, "smoothing_method": "floor", "system": "%s", "tokenizer": "13a"}\n')
_MEDIAN = """    "{name}": {{
      "b1": 50.0,
      "b2": 25.0,
      "d1": 87.5,
      "d2": 100.0,
      "legality": 62.5,
      "score": 6.25
    }}"""
_PER_SEED = """    "{name}": [
      {{
        "b1": 50.0,
        "b2": 25.0,
        "d1": 87.5,
        "d2": 100.0,
        "legality": 62.5,
        "score": 6.25,
        "seed": 0,
        "selected_step": 4,
        "selected_valid_loss": 1.5,
        "selection_language": "ba",
        "total_steps": 8
      }}
    ]"""
_STUDY_JSON = (
    '{\n  "direction_holds": true,\n  "medians": {\n'
    + ",\n".join(_MEDIAN.format(name=name) for name in SETTINGS)
    + '\n  },\n  "per_seed": {\n'
    + ",\n".join(_PER_SEED.format(name=name) for name in SETTINGS)
    + '\n  },\n  "seeds": [\n    0\n  ]\n}\n'
)
_SAMPLES_TXT = "".join(
    f"=== sample {i} ===\ncontext:   c{i}\nreference: r{i}\n"
    f"FS-XLT:      FS-XLT h{i}\nFS-XLT_pmpt: FS-XLT_pmpt h{i}\nMTL:         MTL h{i}\nMTL_pmpt:    MTL_pmpt h{i}\n"
    + ("\n" if i == 1 else "")
    for i in (1, 2)
)

# name -> (write into a directory, {file name: exact bytes})
WRITERS = {
    "save_pairs": (
        lambda d: save_pairs([DialoguePair("hej du", "svar æ", "da"), DialoguePair("a b", "c", "aa")],
                             d / "pairs.jsonl"),
        {"pairs.jsonl": '{"context": "hej du", "response": "svar æ", "lang": "da"}\n'
                        '{"context": "a b", "response": "c", "lang": "aa"}\n'},
    ),
    "write_metric_report": (
        lambda d: write_metric_report(d / "report.jsonl", [report_record("x", _BLEU, _DISTINCT, _LEGALITY)]),
        {"report.jsonl": _RECORD % "x"},
    ),
    "write_kv": (
        lambda d: write_kv(d / "echo.cfg", {"command": "train", "prompted": True, "seeds": (0, 1), "skip": ""}),
        {"echo.cfg": "command = train\nprompted = true\nseeds = 0,1\nskip = \n"},
    ),
    "write_sheet": (
        lambda d: write_sheet(_SAMPLES, d / "sheet.tsv"),
        {"sheet.tsv": "id\tcontext\tresponse_left\tresponse_right\tchoice\ns1\thej du\tsvar æ\tsvar b\t\n"},
    ),
    "write_key": (
        lambda d: write_key(_SAMPLES, d / "key.tsv"),
        {"key.tsv": "id\tleft_system\tright_system\ns1\tFS-XLT\tFS-XLT_pmpt\n"},
    ),
    "write_study_artifacts": (
        lambda d: write_study_artifacts(_study_report(), d),
        {
            "report.jsonl": "".join(_RECORD % f"{name}@seed0" for name in SETTINGS),
            "study.json": _STUDY_JSON,
            "samples.txt": _SAMPLES_TXT,
            "timing.log": "total 1.000s\n" + "".join(f"{name}@seed0 0.250s\n" for name in SETTINGS),
        },
    ),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_bytes_into_missing_directory(tmp_path, writer):
    write, expected = WRITERS[writer]
    out = tmp_path / "new" / "dir"
    write(out)
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode("utf-8"), name
