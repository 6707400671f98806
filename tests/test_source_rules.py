"""Source-structure rules, checked with the standard library's ``ast``.

Each rule is a function of a checkout root that returns one line per
violation under ``src/`` (``unused_imports`` also reads ``tests/`` and
``demos/``, ``dead_definitions`` also reads ``perfbench/``).
Each is tested on a seeded violation in a temporary tree and on this tree.

``size_report`` is not a rule: it counts the four numbers a simplicity
change reports, and ``python3 tests/test_source_rules.py`` prints them.
"""

import argparse
import ast
import pathlib
import shutil

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trees(root: pathlib.Path, *dirs: str) -> dict[pathlib.Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for name in dirs for path in sorted((root / name).rglob("*.py"))}


def unused_imports(root: pathlib.Path) -> list[str]:
    """A module other than a package's ``__init__.py`` uses every name it imports."""
    bad = []
    for path, tree in _trees(root, "src", "tests", "demos").items():
        if path.name == "__init__.py":  # a package's imports are its exports
            continue
        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [f"{path.relative_to(root)}:{line}: {name!r} imported but unused"
                for name, line in imported.items() if name not in used]
    return bad


def open_outside_artifact(root: pathlib.Path) -> list[str]:
    """Every file is opened by ``crossdial/artifact.py`` (``read_text``, ``write_lines``),
    so one place decides the encoding and turns an unreadable file into one
    ``error:io:`` line."""
    return [f"{path.relative_to(root)}:{node.lineno}: open() outside crossdial/artifact.py"
            for path, tree in _trees(root, "src").items() if not path.as_posix().endswith("crossdial/artifact.py")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open"]


def dead_definitions(root: pathlib.Path) -> list[str]:
    """A top-level def or class under ``src/`` is exported in a package's
    ``__all__`` or referenced by name somewhere under ``src/`` or ``perfbench/``."""
    trees = _trees(root, "src", "perfbench")
    src = root / "src"
    exported = {name for path, tree in trees.items() if path.name == "__init__.py" and path.is_relative_to(src)
                for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
                for name in ast.literal_eval(node.value)}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return [f"{path.relative_to(root)}:{node.lineno}: {node.name!r} is neither exported nor referenced"
            for path, tree in trees.items() if path.is_relative_to(src) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in exported and node.name not in used]


# rule -> (files of a tree that breaks it, the lines it must report)
SEEDED = {
    unused_imports: (
        {"src/crossdial/__init__.py": "from .corpus import load\n",  # exports are exempt
         "src/crossdial/corpus.py": "import os\nimport json.decoder\n\n\ndef load(text):\n"
                                    "    return json.loads(text)\n",
         "tests/test_corpus.py": "import pytest\nfrom crossdial.corpus import load\n\n\ndef test_load():\n"
                                 "    assert load('{}') == {}\n",
         "demos/01_corpus.py": "import sys\n\nfrom crossdial.corpus import load\n\nprint(load('[]'))\n"},
        ["src/crossdial/corpus.py:1: 'os' imported but unused",
         "tests/test_corpus.py:1: 'pytest' imported but unused",
         "demos/01_corpus.py:1: 'sys' imported but unused"],
    ),
    open_outside_artifact: (
        {"src/crossdial/artifact.py": "def read_text(path):\n    with open(path) as f:\n        return f.read()\n",
         "src/crossdial/corpus.py": "def load(path):\n    return open(path).read()\n"},
        ["src/crossdial/corpus.py:2: open() outside crossdial/artifact.py"],
    ),
    dead_definitions: (
        {"src/crossdial/__init__.py": 'from .kvconfig import load_kv\n\n__all__ = ["load_kv"]\n',
         "src/crossdial/kvconfig.py": "def load_kv(path):\n    return _parse(path)\n\n\ndef _parse(path):\n"
                                      "    return {}\n\n\ndef bench_only():\n    pass\n\n\nclass Unused:\n    pass\n",
         "perfbench/workloads.py": "import crossdial.kvconfig as K\n\nK.bench_only()\n"},
        ["src/crossdial/kvconfig.py:13: 'Unused' is neither exported nor referenced"],
    ),
}


@pytest.mark.parametrize("rule", SEEDED, ids=lambda rule: rule.__name__)
def test_rule_flags_seeded_violation(rule, tmp_path):
    files, lines = SEEDED[rule]
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert rule(tmp_path) == lines


@pytest.mark.parametrize("rule", SEEDED, ids=lambda rule: rule.__name__)
def test_rule_holds_on_this_tree(rule):
    assert rule(ROOT) == []


def test_dead_definitions_flags_a_restored_config_from_kv(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".state")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    kvconfig = tmp_path / "src" / "crossdial" / "kvconfig.py"
    text = kvconfig.read_text(encoding="utf-8")
    kvconfig.write_text(text + "\n\ndef config_from_kv(config, raw):\n    return config_from(config, raw)\n",
                        encoding="utf-8")
    line = len(text.splitlines()) + 3
    assert dead_definitions(tmp_path) == [
        f"src/crossdial/kvconfig.py:{line}: 'config_from_kv' is neither exported nor referenced"]


def size_report() -> dict[str, int]:
    """Of the ``crossdial`` package on the import path: lines of its source
    tree; config keys (every key of every subcommand's schema); subcommand
    flags (every option of every subcommand except -h); public names in
    ``crossdial.__all__``."""
    import crossdial
    from crossdial.cli import _COMMANDS, build_parser

    src = pathlib.Path(crossdial.__file__).parent

    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [a for p in sub.choices.values() for a in p._actions if not isinstance(a, argparse._HelpAction)]
    return {
        "src_lines": sum(len(path.read_text(encoding="utf-8").splitlines()) for path in src.rglob("*.py")),
        "config_keys": sum(len(schema) for _, _, schema in _COMMANDS.values()),
        "subcommand_flags": len(flags),
        "public_names": len(crossdial.__all__),
    }


def test_size_report_counts_this_tree():
    report = size_report()
    assert list(report) == ["src_lines", "config_keys", "subcommand_flags", "public_names"]
    assert all(isinstance(value, int) and value > 0 for value in report.values())


if __name__ == "__main__":
    for name, value in size_report().items():
        print(f"{name}: {value}")
