"""The one reader and the one writer of every file the package handles.

Corpora, model files, metric reports, config echoes, human-evaluation
sheets and study outputs share one text format: UTF-8, every line ended
by ``\\n``, the parent directory created on demand.  A file that cannot
be read as such text is an ``OSError`` naming the file.  A leaf module
that imports nothing from the package, so every other module can use it.
"""

from __future__ import annotations

import os
from typing import Iterable


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` as UTF-8, each ended by ``\\n``, creating a
    missing parent directory first.  A line may itself hold newlines (an
    indented JSON document is one line here)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)  # not line + "\n", which would copy a model file's one long line
            fh.write("\n")


def read_text(path: str) -> str:
    """The whole of ``path`` as UTF-8 text, without a leading byte-order
    mark; a file that is not UTF-8 raises ``OSError`` naming it, like a
    missing file or a directory does."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
