"""
Blinded pairwise human evaluation
=================================

Two systems' outputs on the same test items are shuffled into a blinded
left/right sheet; annotators mark left / right / neutral; the key file
(kept separate) unblinds the votes into per-system win counts.  At no
point does an annotator-visible artifact name a system.
"""

import tempfile
from pathlib import Path

from crossdial import Corpus, DialoguePair, aggregate_votes, export_pairs, read_key, read_sheet

with tempfile.TemporaryDirectory(prefix="humaneval-demo-") as tmp:
    workdir = Path(tmp)
    sheet_path = workdir / "sheet.tsv"
    key_path = workdir / "key.tsv"

    test = Corpus(
        pairs=tuple(DialoguePair(f"spørgsmål {i}", f"facit {i}", "da") for i in range(8)),
        language="da",
    )
    hyp_plain = [f"svar {i}" for i in range(8)]
    hyp_prompted = [f"godt svar {i}" for i in range(8)]

    # -- export a blinded sheet --------------------------------------------------------

    export_pairs(hyp_plain, hyp_prompted, "FS-XLT", "FS-XLT_pmpt", test,
                 sheet_path=sheet_path, key_path=key_path, n=6, seed=7)

    print("sheet columns are anonymous:")
    print("  " + sheet_path.read_text().splitlines()[0])
    print("system names appear in the sheet:", "FS-XLT" in sheet_path.read_text())

    # -- an annotator fills in the choice column ------------------------------------------

    rows = read_sheet(sheet_path)
    votes = ["left", "right", "right", "neutral", "right", "left"]
    done_path = workdir / "done.tsv"
    with open(done_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(["id", "context", "response_left", "response_right", "choice"]) + "\n")
        for row, vote in zip(rows, votes):
            fields = [row["id"], row["context"], row["response_left"], row["response_right"], vote]
            fh.write("\t".join(fields) + "\n")

    # -- unblind and tally -------------------------------------------------------------

    report = aggregate_votes(done_path, key_path, language="da")
    print("\n" + report.format_table())

    # the key is what mapped left/right back to systems, row by row
    key = read_key(key_path)
    some_id = rows[0]["id"]
    print("\nrow", some_id, "had left =", key[some_id][0], "and right =", key[some_id][1])
