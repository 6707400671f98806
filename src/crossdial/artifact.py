"""The one writer of every file the package produces.

Corpora, model files, metric reports, config echoes, human-evaluation
sheets and study outputs share one text format: UTF-8, every line ended
by ``\\n``, the parent directory created on demand.  A leaf module that
imports nothing from the package, so every other module can use it.
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
            fh.write(line + "\n")
