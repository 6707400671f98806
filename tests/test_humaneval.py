import pytest

from crossdial.corpus import Corpus, DialoguePair
from crossdial.humaneval import (
    HumanEvalError,
    WinRateReport,
    aggregate_votes,
    export_pairs,
    read_key,
    read_sheet,
    setting_family,
)
from helpers import write_votes


def _test_corpus(n=12, lang="da"):
    pairs = tuple(DialoguePair(f"ctx {i} spørgsmål", f"svar {i}", lang) for i in range(n))
    return Corpus(pairs=pairs, language=lang)


def _hyps(tag, n=12):
    return [f"{tag} answer {i}" for i in range(n)]


def _export(tmp_path, n=8, seed=0, **kwargs):
    sheet = tmp_path / "sheet.tsv"
    key = tmp_path / "key.tsv"
    samples = export_pairs(
        _hyps("A"),
        _hyps("B"),
        "FS-XLT",
        "FS-XLT_pmpt",
        _test_corpus(),
        sheet_path=sheet,
        key_path=key,
        n=n,
        seed=seed,
        **kwargs,
    )
    return samples, sheet, key


# -- export ------------------------------------------------------------------


def test_export_writes_blinded_sheet(tmp_path):
    samples, sheet, key = _export(tmp_path)
    rows = read_sheet(sheet)
    assert len(rows) == 8
    header = sheet.read_text().splitlines()[0]
    assert header.split("\t") == ["id", "context", "response_left", "response_right", "choice"]
    # the sheet alone carries no identity bits
    text = sheet.read_text()
    assert "FS-XLT" not in text
    for row in rows:
        assert row["choice"] == ""
        assert {row["response_left"], row["response_right"]} <= {f"A answer {int(row['id'])}", f"B answer {int(row['id'])}"}


def test_export_key_records_assignment(tmp_path):
    samples, sheet, key = _export(tmp_path)
    mapping = read_key(key)
    assert len(mapping) == 8
    for s in samples:
        assert mapping[s.sample_id] == (s.left_system, s.right_system)
        # left/right hold different systems
        assert s.left_system != s.right_system


def test_export_deterministic(tmp_path):
    _, s1, k1 = _export(tmp_path, n=8, seed=5)
    (tmp_path / "second").mkdir()
    _, s2, k2 = _export(tmp_path / "second", n=8, seed=5)
    assert s1.read_bytes() == s2.read_bytes()
    assert k1.read_bytes() == k2.read_bytes()


def test_export_seed_flips_sides(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    _, s1, k1 = _export(tmp_path / "a", n=12, seed=0)
    _, s2, k2 = _export(tmp_path / "b", n=12, seed=1)
    assert k1.read_bytes() != k2.read_bytes()


def test_export_uses_both_sides(tmp_path):
    samples, _, _ = _export(tmp_path, n=8, seed=0)
    assert {s.left_system for s in samples} == {"FS-XLT", "FS-XLT_pmpt"}


def test_export_ids_trace_to_test_items(tmp_path):
    corpus = _test_corpus()
    samples, _, _ = _export(tmp_path, n=8)
    for s in samples:
        assert s.context == corpus[int(s.sample_id)].context


def test_export_misaligned_hypotheses(tmp_path):
    with pytest.raises(HumanEvalError, match="11"):
        export_pairs(
            _hyps("A", 11),
            _hyps("B", 12),
            "FS-XLT",
            "FS-XLT_pmpt",
            _test_corpus(12),
            sheet_path=tmp_path / "s.tsv",
            key_path=tmp_path / "k.tsv",
            n=4,
        )


def test_export_identical_systems_rejected(tmp_path):
    with pytest.raises(HumanEvalError, match="distinct"):
        export_pairs(
            _hyps("A"), _hyps("B"), "MTL", "MTL", _test_corpus(),
            sheet_path=tmp_path / "s.tsv", key_path=tmp_path / "k.tsv", n=4,
        )


def test_export_cross_family_refused_unless_allowed(tmp_path):
    kwargs = dict(
        sheet_path=tmp_path / "s.tsv", key_path=tmp_path / "k.tsv", n=4,
    )
    with pytest.raises(HumanEvalError, match="famil"):
        export_pairs(_hyps("A"), _hyps("B"), "FS-XLT", "MTL", _test_corpus(), **kwargs)
    # override downgrades to a warning
    export_pairs(_hyps("A"), _hyps("B"), "FS-XLT", "MTL", _test_corpus(), allow_cross_family=True, **kwargs)


@pytest.mark.parametrize("system_b", ["FS-XLT\t_pmpt", "FS-XLT_pmpt\n", "FS-XLT\r_pmpt"])
def test_export_refuses_a_system_name_the_key_file_cannot_hold(system_b, tmp_path):
    with pytest.raises(HumanEvalError, match="tab or line break"):
        export_pairs(_hyps("A"), _hyps("B"), "FS-XLT", system_b, _test_corpus(), allow_cross_family=True,
                     sheet_path=tmp_path / "s.tsv", key_path=tmp_path / "k.tsv", n=4)
    assert list(tmp_path.iterdir()) == []


def test_setting_family():
    assert setting_family("FS-XLT") == setting_family("FS-XLT_pmpt") == "FS-XLT"
    assert setting_family("MTL_pmpt") == "MTL"
    assert setting_family("FS-XLT") != setting_family("MTL")


def test_export_n_bounds(tmp_path):
    kwargs = dict(sheet_path=tmp_path / "s.tsv", key_path=tmp_path / "k.tsv")
    with pytest.raises(HumanEvalError):
        export_pairs(_hyps("A"), _hyps("B"), "FS-XLT", "FS-XLT_pmpt", _test_corpus(), n=0, **kwargs)
    with pytest.raises(HumanEvalError):
        export_pairs(_hyps("A"), _hyps("B"), "FS-XLT", "FS-XLT_pmpt", _test_corpus(), n=13, **kwargs)


def test_export_negative_seed(tmp_path):
    with pytest.raises(HumanEvalError, match="seed must be >= 0, got -1"):
        _export(tmp_path, seed=-1)
    assert list(tmp_path.iterdir()) == []


def test_sheet_cells_sanitized(tmp_path):
    hyps_a = _hyps("A")
    hyps_a[0] = "line one\nline two\twith tab"
    export_pairs(
        hyps_a, _hyps("B"), "FS-XLT", "FS-XLT_pmpt", _test_corpus(),
        sheet_path=tmp_path / "s.tsv", key_path=tmp_path / "k.tsv", n=12,
    )
    rows = read_sheet(tmp_path / "s.tsv")
    flat = [r["response_left"] for r in rows] + [r["response_right"] for r in rows]
    assert "line one line two with tab" in flat


# -- aggregation -------------------------------------------------------------


def test_aggregate_multiple_sheets_sum(tmp_path):
    samples, sheet, key = _export(tmp_path, n=6, seed=3)
    v1, v2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
    write_votes(sheet, v1, ["left"] * 6)
    write_votes(sheet, v2, ["right"] * 6)
    merged = aggregate_votes([v1, v2], key)
    # every row voted once left and once right: each system wins exactly once per row
    assert merged.total == 12
    assert merged.neutral == 0
    assert merged.wins_a == 6
    assert merged.wins_b == 6


def test_aggregate_unknown_id_always_errors(tmp_path):
    samples, sheet, key = _export(tmp_path, n=4, seed=0)
    voted = tmp_path / "voted.tsv"
    rows = read_sheet(sheet)
    with open(voted, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["id", "context", "response_left", "response_right", "choice"]) + "\n")
        fh.write("\t".join(["9999", "x", "y", "z", "left"]) + "\n")
    with pytest.raises(HumanEvalError, match="9999"):
        aggregate_votes(voted, key)


def test_aggregate_bad_choice_skipped(tmp_path):
    samples, sheet, key = _export(tmp_path, n=4, seed=0)
    voted = tmp_path / "voted.tsv"
    write_votes(sheet, voted, ["left", "maybe", "", "right"])
    report = aggregate_votes(voted, key)  # bad rows skipped
    assert report.total == 2


def test_aggregate_choice_case_insensitive(tmp_path):
    samples, sheet, key = _export(tmp_path, n=3, seed=1)
    voted = tmp_path / "voted.tsv"
    write_votes(sheet, voted, ["Left", "RIGHT", "Neutral"])
    assert aggregate_votes(voted, key).total == 3


def test_aggregate_no_valid_votes(tmp_path):
    samples, sheet, key = _export(tmp_path, n=3, seed=1)
    with pytest.raises(HumanEvalError, match="no valid votes"):
        aggregate_votes(sheet, key)  # choices still empty


def test_read_sheet_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("id\tcontext\tchoice\n")
    with pytest.raises(HumanEvalError, match="header"):
        read_sheet(bad)


def test_read_sheet_rejects_ragged_row(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text(
        "id\tcontext\tresponse_left\tresponse_right\tchoice\n0001\tonly\ttwo\n"
    )
    with pytest.raises(HumanEvalError, match=":2"):
        read_sheet(bad)


def test_read_key_rejects_duplicate_id(tmp_path):
    bad = tmp_path / "key.tsv"
    bad.write_text("id\tleft_system\tright_system\n0001\tA\tB\n0001\tB\tA\n")
    with pytest.raises(HumanEvalError, match="0001"):
        read_key(bad)


# -- report ------------------------------------------------------------------


def test_counts_sum_to_total():
    report = WinRateReport(system_a="A1", system_b="B1", wins_a=10, wins_b=5, neutral=3)
    assert report.total == 18


def test_table_fractional_percent_one_decimal():
    report = WinRateReport(system_a="A1", system_b="B1", wins_a=1, wins_b=1, neutral=1)
    assert "33.3%" in report.format_table()


def test_empty_tally_renders():
    table = WinRateReport(system_a="A1", system_b="B1", wins_a=0, wins_b=0, neutral=0).format_table()
    assert table.splitlines() == [
        "system   wins (0 judged)",
        "A1       0 (0%)",
        "Neutral  0 (0%)",
        "B1       0 (0%)",
    ]
