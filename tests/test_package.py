"""Package surface: the names ``crossdial`` exports, and the names README cites."""

import importlib
import pathlib
import re
import subprocess
import sys
import types

import crossdial

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_exactly_the_public_bindings():
    bound = {name for name, value in vars(crossdial).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(crossdial.__all__) == sorted(bound)
    assert len(crossdial.__all__) == len(set(crossdial.__all__))


def test_readme_module_names_resolve():
    # README names constants and functions by module path; a moved one must not leave it stale
    cited = re.findall(r"`crossdial\.(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    assert cited
    missing = [f"crossdial.{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"crossdial.{module}"), name)]
    assert not missing, f"README names {missing}, which do not resolve"


def test_numpy_is_the_only_runtime_dependency():
    # what `import crossdial, crossdial.cli` adds to a fresh interpreter's modules
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import crossdial, crossdial.cli; print(*sorted(set(sys.modules) - before))")
    src = pathlib.Path(crossdial.__file__).resolve().parents[1]
    loaded = subprocess.run([sys.executable, "-c", probe, str(src)],
                            capture_output=True, text=True, check=True).stdout.split()
    assert "crossdial.cli" in loaded and "numpy" in loaded
    allowed = sys.stdlib_module_names | {"numpy", "crossdial"}
    foreign = [name for name in loaded if name.split(".")[0] not in allowed]
    assert not foreign, f"importing crossdial loads {foreign}, neither the standard library nor numpy"
