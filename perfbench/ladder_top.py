"""One-shot record of ``normal_form`` at the top ladder rungs (6,13) and (7,15).

Information only: the result is a starting point for the ROADMAP's
wall-clock targets, never repeated by ``run.py`` and never gated.  One
call per rung on ``random_curve(n, m, trial_rng(0, 0))``, the curve the
ROADMAP baseline uses.  Takes about four minutes on one core.

    python3 perfbench/ladder_top.py [--out perfbench/records/ladder_top.json]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, add_source_path, environment  # noqa: E402

RUNGS = ((6, 13), (7, 15))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "records" / "ladder_top.json"))
    args = parser.parse_args(argv)
    add_source_path()
    from legcurve.moduli import canonical_point, normal_form
    from legcurve.sampling import random_curve, trial_rng

    rows = []
    for n, m in RUNGS:
        curve = random_curve(n, m, trial_rng(0, 0))
        started = time.perf_counter()
        form = normal_form(curve)
        elapsed = time.perf_counter() - started
        point = canonical_point(form.moduli_point(), n, m)
        rows.append(
            {
                "type": [n, m],
                "curve": "random_curve(n, m, trial_rng(0, 0))",
                "normal_form_s": round(elapsed, 3),
                "steps": len(form.steps),
                "canonical_point": {str(k): [str(c) for c in v.coeffs] for k, v in sorted(point.items())},
            }
        )
        print(f"({n},{m}) normal_form {elapsed:.1f} s, {len(form.steps)} steps", flush=True)
    record = {
        "note": "single calls, information only; not a benchmark workload",
        "environment": environment(seed=0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rungs": rows,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
