"""The CI workflow runs ``tools/ci.sh`` steps, so every step can also run from a checkout."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_workflow_steps_are_ci_script_steps():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = set(re.findall(r"^  (\w+)\)$", (ROOT / "tools" / "ci.sh").read_text(encoding="utf-8"), flags=re.M))
    runs = re.findall(r"^\s+run: (.*)$", workflow, flags=re.M)
    named = [match.group(1) for run in runs if (match := re.fullmatch(r"tools/ci\.sh (\w+)", run))]
    assert named and set(named) <= steps, f"the workflow names {sorted(set(named) - steps)}, which tools/ci.sh lacks"
    others = [run for run in runs if not re.fullmatch(r"tools/ci\.sh (\w+)", run)]
    assert others == ["python3 -m pip install -e '.[test]'"], others  # only Install runs commands of its own
