"""Record the answers every benchmark pass is checked against.

    python3 perfbench/record_expected.py [workload ...]

Runs each workload's jobs once and writes their answers to
``expected.json``: the scrubbed verify reports (every artifact, wall
times removed) and the homology profiles.  Re-record only when a change
is meant to alter an answer, and say so; a speed-up must leave this file
untouched.
"""

from __future__ import annotations

import json
import sys

from run import HERE
from workloads import WORKLOADS, build_inputs, run_job


def main(names) -> int:
    path = HERE / "expected.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        answers = {}
        for job in build_inputs(name, 0):
            answers.update(run_job(job))
        recorded[name] = dict(sorted(answers.items()))
        print(f"{name}: {len(answers)} answers", file=sys.stderr)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
