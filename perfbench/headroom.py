"""One-shot time-budget headroom report for the eight acceptance criteria.

Usage, from the repository root (takes as long as the acceptance suite,
several minutes)::

    python3 perfbench/headroom.py

Runs ``tests/test_acceptance.py`` once at its stock parameters and reads each
criterion's scorecard line, ``criterion N (name): PASS|FAIL ... [x s / budget
y s]``. Both the seconds and the budget come from the tests themselves; this
script keeps no copy of ``TIME_BUDGETS`` and changes none of them. A
criterion above HEADROOM_LIMIT of its budget is flagged, and so is one whose
scorecard line is missing. The exit status is 1 when anything is flagged.
This is a report, not a benchmark workload.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADROOM_LIMIT = 0.5
TESTS = os.path.join("tests", "test_acceptance.py")
CRITERION_TEST = re.compile(r"^def test_criterion_(\d+)_", re.MULTILINE)
SCORECARD = re.compile(
    r"criterion (\d+) \((.*?)\): (PASS|FAIL)\b.*\[([\d.]+)s / budget ([\d.]+)s\]"
)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-s", "-q", "-p", "no:cacheprovider",
         TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    total = time.perf_counter() - start
    rows = {}
    for line in proc.stdout.splitlines():
        match = SCORECARD.search(line)
        if match:
            number, name, status, seconds, budget = match.groups()
            rows[int(number)] = (name, status, float(seconds), float(budget))
    if not rows:
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
        print("error: no scorecard lines found", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, TESTS), encoding="utf-8") as fp:
        expected = sorted({int(n) for n in CRITERION_TEST.findall(fp.read())})
    flagged = []
    print(f"{'criterion':>9}  {'status':6} {'seconds':>8} {'budget':>7} {'share':>6}")
    for number in expected:
        if number not in rows:
            print(f"{number:>9}  missing scorecard line")
            flagged.append(number)
            continue
        name, status, seconds, budget = rows[number]
        share = seconds / budget
        flag = "  OVER HALF OF BUDGET" if share > HEADROOM_LIMIT else ""
        if flag:
            flagged.append(number)
        print(f"{number:>9}  {status:6} {seconds:8.1f} {budget:7.0f} {share:6.1%}"
              f"{flag}  {name}")
    print(f"acceptance suite wall time: {total:.1f}s (pytest exit {proc.returncode})")
    print(json.dumps({
        "criteria": {str(n): {"name": r[0], "status": r[1], "seconds": r[2],
                              "budget": r[3]} for n, r in sorted(rows.items())},
        "over_half_budget": flagged,
        "suite_seconds": total,
    }))
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
