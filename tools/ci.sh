#!/usr/bin/env bash
# The CI workflow's steps, runnable from a checkout: tools/ci.sh <step>.
# Run from the repository root with the package's test extras installed.
set -euo pipefail
# the pinned study medians, artifact hashes and byte-identical re-runs are
# checked at one BLAS thread
export OPENBLAS_NUM_THREADS=1

step="${1:-}"
case "$step" in
  env)
    # the environment the run below happens in, to hold against the one the
    # pinned digests were measured in (PINNED_ENVIRONMENT in
    # tests/test_acceptance.py); an older numpy whose show_config takes no
    # mode prints its plain report instead
    python3 - <<'PY'
import platform
import numpy as np
print("python", platform.python_version())
print("numpy", np.__version__)
try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print("blas", blas["name"], blas["version"], blas.get("openblas configuration", ""))
except (TypeError, KeyError):
    np.show_config()
PY
    ;;
  tier1)
    # includes tests/test_source_rules.py: unused imports, one reader and one
    # writer, dead definitions
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors
    ;;
  sweep)
    # the bit-exact gradient checks, the pinned medians, the study's artifact
    # hashes and the CLI sweep's pinned outputs must hold on every OpenBLAS
    # kernel a runner may pick, not only the one it detects (SkylakeX is left
    # out: it needs AVX-512)
    for kernel in Prescott Nehalem Sandybridge Haswell Zen; do
      echo "== OPENBLAS_CORETYPE=$kernel"
      export OPENBLAS_CORETYPE="$kernel"
      PYTHONPATH=src python3 -m pytest -q tests/test_batched_passes.py tests/test_flat_params.py tests/test_model.py
      PYTHONPATH=src python3 -m pytest -q tests/test_acceptance.py -k "criterion_7 or criterion_8_echo_bytes_pinned"
    done
    ;;
  smoke)
    python3 -m pytest -q perfbench/test_smoke.py
    ;;
  demos)
    # a fresh TMPDIR that must still be empty afterwards: demos clean up after themselves
    TMPDIR="$(mktemp -d)"
    export TMPDIR
    for demo in demos/*.py; do echo "== $demo"; PYTHONPATH=src python3 "$demo"; done
    if [ -n "$(ls -A "$TMPDIR")" ]; then echo "demos left files in $TMPDIR:"; ls -A "$TMPDIR"; exit 1; fi
    rmdir "$TMPDIR"
    ;;
  memory)
    # train_long's end-to-end metrics, peak_rss_mb among them, on two seeds
    # (before the chunked readout the peak moved with the seed); printed,
    # not gated. The runner writes only the ignored perfbench/.state/
    for seed in 0 2; do
      python3 perfbench/run.py --workload train_long --seed "$seed" --seconds 5 --trace 0 | tail -n 1
    done
    ;;
  clean)
    # the steps above must leave nothing that git sees: outputs belong in temp dirs or .gitignore
    status="$(git status --porcelain)"
    if [ -n "$status" ]; then echo "the checkout is dirty:"; echo "$status"; exit 1; fi
    ;;
  size)
    # the four numbers a simplicity change reports (size_report in
    # tests/test_source_rules.py); printed, not gated
    PYTHONPATH=src python3 tests/test_source_rules.py
    ;;
  *)
    echo "usage: tools/ci.sh {env|tier1|sweep|smoke|demos|memory|clean|size}" >&2
    exit 2
    ;;
esac
