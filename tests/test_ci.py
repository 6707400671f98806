"""The CI workflow runs ``tools/ci.sh`` steps, so every step can also run from a checkout."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = (ROOT / "tools" / "ci.sh").read_text(encoding="utf-8")
STEPS = re.findall(r"^  (\w+)\)$", SCRIPT, flags=re.M)  # the case arms, in order


def test_workflow_steps_are_ci_script_steps():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^\s+run: (.*)$", workflow, flags=re.M)
    named = [match.group(1) for run in runs if (match := re.fullmatch(r"tools/ci\.sh (\w+)", run))]
    missing = sorted(set(named) - set(STEPS))
    assert named and not missing, f"the workflow names {missing}, which tools/ci.sh lacks"
    others = [run for run in runs if not re.fullmatch(r"tools/ci\.sh (\w+)", run)]
    assert others == ["python3 -m pip install -e '.[test]'"], others  # only Install runs commands of its own


def test_usage_line_names_the_ci_script_steps():
    usage = re.search(r'echo "usage: tools/ci\.sh \{([\w|]+)\}"', SCRIPT)
    assert usage, "tools/ci.sh has no usage line"
    assert usage.group(1).split("|") == STEPS


def test_readme_names_every_ci_script_step():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"# any CI step: ([\w ]+)$", readme, flags=re.M)
    assert listed, "README lists no CI steps"
    assert listed.group(1).split() == STEPS
