"""Record the program's r_hat and kappa for every amplitude the benchmark can
draw, and the checks and domains of each verify suite, after checking that
every other physics property holds for each of them.

    python3 perfbench/make_reference.py     # from the repository root

Writes perfbench/reference.json.  Run it only at a commit whose science is
the accepted baseline: later runs are judged against these values.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    work = ROOT / ".perfbench_runs" / "reference"
    reference = {"drift-sweep": {f"{k:g}": {} for k in workloads.DRIFT_KS}, "critical-tail": {},
                 "certify": {}}
    failures = []
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for suite, checks in workloads.verify_suites(work).items():
        if checks is None:
            failures.append(f"verify {suite} wrote no report")
            continue
        failures += [f"verify {suite}: {name}" for name, (verdict, _) in checks.items()
                     if verdict != "pass"]
        reference["certify"][suite] = {name: domain for name, (_, domain) in checks.items()}
    for amp in workloads.AMPLITUDES:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        rec = workloads.drift_sweep(work, {f"{k:g}": amp for k in workloads.DRIFT_KS}, None)
        failures += [f"drift-sweep A={amp:g}: {name}" for name, ok in rec.ops if not ok]
        for k in workloads.DRIFT_KS:
            entry = rec.physics[f"k={k:g}"]
            reference["drift-sweep"][f"{k:g}"][f"{amp:g}"] = entry["r_hat"]
        rec = workloads.critical_tail(work, {"A": amp}, None)
        failures += [f"critical-tail A={amp:g}: {name}" for name, ok in rec.ops if not ok]
        reference["critical-tail"][f"{amp:g}"] = rec.physics["kappa"]
        print(f"A={amp:g} done", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
