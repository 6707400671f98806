"""Blinded pairwise human evaluation: sheet export and vote aggregation.

Two systems' responses to the same test contexts are paired row by row,
shuffled into anonymous Left/Right slots (a fresh fair coin per row), and
written to a tab-separated sheet an annotator can fill in.  The mapping
from row id to system identity goes into a separate key file; keeping the
two files apart is the blinding contract — the sheet alone carries zero
bits about which system is which.

Aggregation unblinds completed sheets with the key and tallies wins per
system plus Neutral.  Counts are exact integers; the win-rate table
prints each share of the judged total rounded to one decimal, so the
printed shares need not sum to exactly 100 (1/1/1 votes print 33.3% each).
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .artifact import read_text, write_lines
from .corpus import Corpus

log = logging.getLogger(__name__)

SHEET_COLUMNS = ("id", "context", "response_left", "response_right", "choice")
KEY_COLUMNS = ("id", "left_system", "right_system")

CHOICES = ("left", "right", "neutral")


class HumanEvalError(ValueError):
    """Raised for misaligned inputs, malformed sheets, or bad votes."""


def setting_family(system: str) -> str:
    """Strip the prompted marker: FS-XLT_pmpt and FS-XLT share a family."""
    return system[: -len("_pmpt")] if system.endswith("_pmpt") else system


@dataclass(frozen=True)
class PairedSample:
    """One blinded comparison row (the key fields included)."""

    sample_id: str
    context: str
    response_left: str
    response_right: str
    left_system: str
    right_system: str


@dataclass(frozen=True)
class WinRateReport:
    """Win counts for one pairing; the table derives shares from them."""

    system_a: str
    system_b: str
    wins_a: int
    wins_b: int
    neutral: int
    language: str = ""

    @property
    def total(self) -> int:
        return self.wins_a + self.wins_b + self.neutral

    def format_table(self) -> str:
        rows = [
            (self.system_a, self.wins_a),
            ("Neutral", self.neutral),
            (self.system_b, self.wins_b),
        ]
        width = max(len(name) for name, _ in rows + [("system", 0)]) + 2
        lines = []
        if self.language:
            lines.append(f"language: {self.language}")
        lines.append(f"{'system':<{width}}wins ({self.total} judged)")
        for name, count in rows:
            lines.append(f"{name:<{width}}{count} ({_format_percent(count, self.total)})")
        return "\n".join(lines)


def _format_percent(count: int, total: int) -> str:
    pct = 100.0 * count / total if total else 0.0
    if pct == int(pct):
        return f"{int(pct)}%"
    return f"{pct:.1f}%"


def _sanitize(text: str, what: str) -> str:
    if any(ch in text for ch in "\t\n\r"):
        log.warning("%s contains tab/newline characters; replaced with spaces for the sheet", what)
        return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")
    return text


def export_pairs(
    hypotheses_a: Sequence[str],
    hypotheses_b: Sequence[str],
    system_a: str,
    system_b: str,
    test_corpus: Corpus,
    sheet_path: str,
    key_path: str,
    n: int = 100,
    seed: int = 0,
    allow_cross_family: bool = False,
) -> list[PairedSample]:
    """Sample ``n`` contexts and write the blinded sheet plus its key.

    Both hypothesis lists must align one-to-one with the test corpus.
    Pairing systems from different setting families (FS-XLT vs MTL) is
    refused unless ``allow_cross_family`` downgrades that to a warning.
    The row ids are zero-padded test-corpus indices, so a sample can be
    traced back to its test item without consulting the key.
    """
    if system_a == system_b:
        raise HumanEvalError("the two systems must have distinct names")
    for system in (system_a, system_b):
        if any(ch in system for ch in "\t\n\r"):
            raise HumanEvalError(f"system name {system!r} holds a tab or line break, which the key file cannot hold")
    if setting_family(system_a) != setting_family(system_b):
        message = (
            f"systems {system_a!r} and {system_b!r} belong to different setting families; "
            "the comparison mixes scenarios"
        )
        if not allow_cross_family:
            raise HumanEvalError(message)
        log.warning("%s (proceeding as requested)", message)
    if len(hypotheses_a) != len(test_corpus) or len(hypotheses_b) != len(test_corpus):
        raise HumanEvalError(
            f"hypothesis counts ({len(hypotheses_a)}, {len(hypotheses_b)}) do not match "
            f"the test corpus size {len(test_corpus)}"
        )
    if not 1 <= n <= len(test_corpus):
        raise HumanEvalError(f"n={n} must be between 1 and the test size {len(test_corpus)}")
    if seed < 0:
        raise HumanEvalError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    indices = sorted(rng.choice(len(test_corpus), size=n, replace=False).tolist())
    id_width = max(4, len(str(len(test_corpus) - 1)))

    samples: list[PairedSample] = []
    for index in indices:
        a_left = bool(rng.integers(2))  # fair coin per row
        resp_a = _sanitize(hypotheses_a[index], f"hypothesis {index} of {system_a}")
        resp_b = _sanitize(hypotheses_b[index], f"hypothesis {index} of {system_b}")
        left, right = (resp_a, resp_b) if a_left else (resp_b, resp_a)
        left_system, right_system = (system_a, system_b) if a_left else (system_b, system_a)
        samples.append(
            PairedSample(
                sample_id=f"{index:0{id_width}d}",
                context=_sanitize(test_corpus[index].context, f"context {index}"),
                response_left=left,
                response_right=right,
                left_system=left_system,
                right_system=right_system,
            )
        )

    write_sheet(samples, sheet_path)
    write_key(samples, key_path)
    return samples


def write_sheet(samples: Iterable[PairedSample], path: str) -> None:
    rows = [[s.sample_id, s.context, s.response_left, s.response_right, ""] for s in samples]
    write_lines(path, ["\t".join(row) for row in [SHEET_COLUMNS, *rows]])


def write_key(samples: Iterable[PairedSample], path: str) -> None:
    rows = [[s.sample_id, s.left_system, s.right_system] for s in samples]
    write_lines(path, ["\t".join(row) for row in [KEY_COLUMNS, *rows]])


def _read_rows(path: str, columns: tuple[str, ...]) -> list[dict[str, str]]:
    lines = read_text(path).splitlines()
    if not lines:
        raise HumanEvalError(f"{path}: empty file")
    header = tuple(lines[0].split("\t"))
    if header != columns:
        raise HumanEvalError(f"{path}: expected header columns {columns}, found {header}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split("\t")
        if len(cells) != len(columns):
            raise HumanEvalError(f"{path}:{lineno}: expected {len(columns)} columns, found {len(cells)}")
        rows.append(dict(zip(columns, cells)))
    return rows


def read_sheet(path: str) -> list[dict[str, str]]:
    return _read_rows(path, SHEET_COLUMNS)


def read_key(path: str) -> dict[str, tuple[str, str]]:
    key: dict[str, tuple[str, str]] = {}
    for row in _read_rows(path, KEY_COLUMNS):
        if row["id"] in key:
            raise HumanEvalError(f"{path}: duplicate sample id {row['id']!r}")
        key[row["id"]] = (row["left_system"], row["right_system"])
    return key


def aggregate_votes(
    sheet_paths: str | Sequence[str],
    key_path: str,
    language: str = "",
) -> WinRateReport:
    """Unblind one or more completed sheets and tally the votes.

    Several sheets (e.g. one per annotator) sum their counts.  A row whose
    choice is missing or not Left/Right/Neutral (case-insensitive) is
    skipped with a warning naming it.  An id absent from the key is an
    error: the row cannot be unblinded.
    """
    if isinstance(sheet_paths, (str, os.PathLike)):
        sheet_paths = [sheet_paths]
    key = read_key(key_path)
    systems = sorted({name for pair in key.values() for name in pair})
    if len(systems) != 2:
        raise HumanEvalError(f"{key_path}: expected exactly 2 systems, found {systems}")
    system_a, system_b = systems

    wins = {system_a: 0, system_b: 0}
    neutral = 0
    bad_rows: list[str] = []
    for sheet_path in sheet_paths:
        for row in read_sheet(sheet_path):
            sample_id = row["id"]
            if sample_id not in key:
                raise HumanEvalError(f"{sheet_path}: sample id {sample_id!r} is not in the key file")
            choice = row["choice"].strip().lower()
            if choice not in CHOICES:
                bad_rows.append(f"{sheet_path}: id {sample_id}: choice {row['choice']!r}")
                continue
            left_system, right_system = key[sample_id]
            if choice == "left":
                wins[left_system] += 1
            elif choice == "right":
                wins[right_system] += 1
            else:
                neutral += 1

    if bad_rows:
        log.warning("skipped %d rows with missing or invalid choices: %s", len(bad_rows), "; ".join(bad_rows))
    if wins[system_a] + wins[system_b] + neutral == 0:
        raise HumanEvalError("no valid votes to aggregate")
    return WinRateReport(
        system_a=system_a,
        system_b=system_b,
        wins_a=wins[system_a],
        wins_b=wins[system_b],
        neutral=neutral,
        language=language,
    )
