"""Record the output digest of every pool input of a workload.

    python3 perfbench/record_digests.py WORKLOAD [WORKLOAD ...]

Writes ``perfbench/digests/<workload>.json``.  ``run.py`` compares every
output against these, so record them from a commit whose outputs are
known good and never to make a failing run pass: the ROADMAP requires
the outputs to stay identical.  An input whose output fails the
workload's own checks is reported and the file is not written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import add_source_path  # noqa: E402


def record(workload) -> dict[str, str] | None:
    import workloads

    digests, bad = {}, []
    for group in workload.groups:
        for index in range(group.pool):
            item = group.make(index)
            output, _ = item.run()
            problems = item.check(output)
            if problems:
                bad.append(f"{item.key}: {'; '.join(problems)}")
            digests[item.key] = workloads.digest(item.summary(output))
        print(f"{workload.name} {group.label}: {group.pool} recorded", file=sys.stderr, flush=True)
    for message in bad:
        print(f"check failed: {message}", file=sys.stderr)
    return None if bad else digests


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    add_source_path()
    import workloads

    status = 0
    for name in names:
        workload = workloads.WORKLOADS[name]
        digests = record(workload)
        if digests is None:
            status = 1
            continue
        out = HERE / "digests" / f"{name}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
