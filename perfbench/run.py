"""legcurve benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` in this process, a closed loop with
one thread, and prints one JSON object as the last line of stdout:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run spends half its time untraced and half with the
span wrappers of ``spans.py`` installed, and reports the per-layer
metrics.  Times are reference seconds, wall seconds corrected for the
machine's speed as sampled by ``speed.py``.  Outputs are checked outside
the timed region against the digests recorded in ``digests/`` and against
independent checks.  A full record, environment included, goes to
``perfbench/results/``.

The library is imported from ``src/`` of this checkout; without it the
harness exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from common import ROOT, MissingSourceError, add_source_path, check_loaded_from_source, environment  # noqa: E402

SETUP_REPEATS = 5
LIBRARY_MODULES = ("legcurve", "legcurve.sampling", "legcurve.cli")
MIN_PASSES = 3
MAX_MESSAGES = 20

clock = time.perf_counter

# per-layer span fields reported from the traced run
LAYER_FIELDS = {
    "series.series_compose": ("calls", "self_s"),
    "series.series_reverse": ("calls", "self_s"),
    "series.series_nth_root": ("calls", "self_s"),
    "curves.reparametrize": ("calls", "incl_s", "self_s"),
    "germs.evaluate_on_series": ("calls", "self_s"),
    "germs.substitute": ("calls", "self_s"),
    "germs.invert_unit": ("calls", "self_s"),
    "contact.compose": ("calls", "self_s"),
    "contact.require_contact": ("calls", "self_s"),
    "contact.solve_contact": ("calls", "self_s"),
    "contact.act_on_curve": ("calls", "incl_s"),
    "contact.forget_transform": ("calls", "incl_s"),
    "oracle.conormal_semigroup": ("calls", "incl_s"),
    "oracle.restriction": ("calls", "self_s"),
    "oracle.realize_order": ("calls", "incl_s"),
    "moduli.canonical_point": ("calls", "incl_s"),
    "expansion.monomial_series": ("calls", "self_s"),
    "expansion.entry_closed_form": ("calls", "self_s"),
    "expansion.determinant": ("calls", "self_s"),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}


@dataclass
class Pass:
    """One pass; ``seconds`` and ``parts`` are in reference seconds (``speed.py``),
    ``wall`` is raw."""

    seconds: float
    wall: float
    outputs: list
    parts: list
    snapshot: dict | None = None


def time_imports(sampler) -> list[float]:
    """Import the library afresh ``SETUP_REPEATS`` times, its modules dropped
    from ``sys.modules`` before each; reference seconds per import."""
    samples = []
    for _ in range(SETUP_REPEATS):
        for name in [key for key in sys.modules if key == "legcurve" or key.startswith("legcurve.")]:
            del sys.modules[name]
        _, busy, ratio = sampler.timed(lambda: [importlib.import_module(m) for m in LIBRARY_MODULES])
        samples.append(busy * ratio)
    return samples


def set_up(workloads, workload, seed: int, sampler):
    """Repeat input generation and the warm-up of the process-wide caches;
    reference seconds per repeat."""
    samples = []
    for _ in range(SETUP_REPEATS):
        workloads.clear_process_caches()
        items, busy, ratio = sampler.timed(lambda: workload.set_up(seed))
        samples.append(busy * ratio)
    return items, samples


def run_passes(items, budget: float, min_passes: int, tracer=None) -> list[Pass]:
    """Closed loop over the items until the wall-clock budget would be overrun.

    Each call's seconds are scaled to reference seconds by the speed sampled
    while it ran (``speed.py``), raised to the item's ``speed_exponent``; the
    sampler's own time is left out.  For a fixed machine speed the scaled
    time is proportional to the raw time, so the scaling moves no
    comparison between two commits; it removes the share of the spread that
    follows the machine's speed.
    """
    passes = []
    started = clock()
    with speed.SpeedSampler() as sampler:
        while True:
            if tracer is not None:
                tracer.reset()
            outputs, parts = [], []
            wall = scaled = 0.0
            for item in items:
                start = clock()
                try:
                    (output, seconds), busy, ratio = sampler.timed(item.run)
                    factor = ratio ** item.speed_exponent
                except Exception as exc:  # counted as a failed operation, the loop goes on
                    output, seconds, busy, factor = exc, {}, clock() - start, 1.0
                elapsed = clock() - start
                wall += elapsed
                scaled += busy * factor
                outputs.append(output)
                parts.append({part: s * factor * busy / elapsed for part, s in seconds.items()})
            snapshot = None
            if tracer is not None:
                snapshot = scale_snapshot(tracer.snapshot(), scaled / wall)
            passes.append(Pass(scaled, wall, outputs, parts, snapshot))
            typical = statistics.median(p.wall for p in passes)
            if len(passes) >= min_passes and clock() - started + typical > budget:
                return passes


def scale_snapshot(snapshot: dict, factor: float) -> dict:
    """Span times of a pass in reference seconds, by the pass's mean factor."""
    for kind in ("self_s", "incl_s"):
        snapshot[kind] = {name: s * factor for name, s in snapshot[kind].items()}
    return snapshot


class Verifier:
    """Checks every operation's output: no exception, the recorded digest,
    and the workload's own checks (once per distinct input)."""

    def __init__(self, workloads, recorded: dict):
        self.workloads = workloads
        self.recorded = recorded
        self.checked: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _problems(self, item, output) -> tuple[str | None, list[str]]:
        if isinstance(output, Exception):
            return None, [f"raised {type(output).__name__}: {output}"]
        try:
            found = self.workloads.digest(item.summary(output))
            if item.key not in self.checked:
                self.checked[item.key] = item.check(output)
        except Exception as exc:  # a malformed output fails its operation
            return None, [f"checking the output raised {type(exc).__name__}: {exc}"]
        problems = []
        want = self.recorded.get(item.key)
        if want is None:
            problems.append("no recorded digest")
        elif found != want:
            problems.append(f"digest {found} differs from recorded {want}")
        return found, problems + self.checked[item.key]

    def verify(self, items, passes) -> list[list[str | None]]:
        """Per pass, the digest of each output (None where it raised)."""
        found_all = []
        for p in passes:
            found_pass = []
            for item, output in zip(items, p.outputs):
                self.attempted += 1
                found, problems = self._problems(item, output)
                found_pass.append(found)
                if problems:
                    self.failed += 1
                    self.note(f"{item.key}: {'; '.join(problems)}")
            found_all.append(found_pass)
        return found_all

    def note(self, message: str) -> None:
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)


def run_digest(items, found: list) -> str:
    text = "\n".join(f"{item.key}:{d}" for item, d in zip(items, found))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    summary = {"n": len(ordered), "min": ordered[0], "median": statistics.median(ordered), "max": ordered[-1]}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        summary.update(q1=q1, q3=q3)
    return summary


def part_means(passes: list[Pass], part: int) -> list[float]:
    """Per pass, the mean seconds per call of one part."""
    means = []
    for p in passes:
        values = [seconds[part] for seconds in p.parts if part in seconds]
        if values:
            means.append(sum(values) / len(values))
    return means


def end_to_end(workload, passes, setup_samples, verifier) -> dict:
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - verifier.failed / verifier.attempted, "ratio"),
    }
    for part in range(len(workload.parts)):
        means = part_means(passes, part)
        metrics[f"part{part + 1}_s"] = (statistics.median(means) if means else 0.0, "s")
    return metrics


def per_layer(spans, traced: list[Pass], untraced: list[Pass]) -> dict:
    snaps = [p.snapshot for p in traced]

    def median_of(kind: str, name: str) -> float:
        return statistics.median(s[kind].get(name, 0) for s in snaps)

    metrics = {}
    for name, fields in LAYER_FIELDS.items():
        for field in fields:
            metrics[f"{name}.{field}"] = (median_of(field, name), FIELD_UNITS[field])
    inserted = sum(s["counts"].get(spans.INSERTED, 0) for s in snaps)
    pivots = sum(s["counts"].get(spans.PIVOTS, 0) for s in snaps)
    metrics["oracle.pivot_ratio"] = (pivots / inserted if inserted else 0.0, "ratio")
    metrics["oracle.full_fallbacks"] = (median_of("counts", spans.FULL_FALLBACKS), "count")
    metrics["moduli.steps"] = (median_of("counts", spans.STEPS), "count")
    metrics["series.max_coeff_bits"] = (max(s["gauges"].get(spans.MAX_COEFF_BITS, 0) for s in snaps), "bits")
    metrics["sympoly.max_terms"] = (max(s["gauges"].get(spans.MAX_TERMS, 0) for s in snaps), "count")
    overhead = statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in untraced)
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


def audit(workload, items, traced: list[Pass]) -> list[str]:
    """Structural identities of the traced run and the spans it must reach."""
    failures = []
    for index, p in enumerate(traced):
        if any(isinstance(o, Exception) for o in p.outputs):
            continue
        failures.extend(f"traced pass {index}: {msg}" for msg in workload.identities(p.snapshot, items, p.outputs))
    for name in workload.expect:
        if not all(p.snapshot["calls"].get(name, 0) for p in traced):
            failures.append(f"span {name} recorded no calls on {workload.name}")
    return failures


def listed_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="legcurve benchmark harness")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        add_source_path()
        listed = listed_metrics(bool(args.trace))
        with speed.SpeedSampler() as sampler:
            import_samples = time_imports(sampler)
        check_loaded_from_source(sys.modules["legcurve"])
    except (MissingSourceError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    digest_file = HERE / "digests" / f"{workload.name}.json"
    recorded = json.loads(digest_file.read_text(encoding="utf-8")) if digest_file.exists() else {}
    verifier = Verifier(workloads, recorded)

    with speed.SpeedSampler() as sampler:
        items, generation_samples = set_up(workloads, workload, args.seed, sampler)
    setup_samples = [a + b for a, b in zip(import_samples, generation_samples)]
    print(f"{workload.name}: {len(items)} items per pass, seed {args.seed}", file=sys.stderr)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(items, budget, 1 if args.trace else MIN_PASSES)
    found = verifier.verify(items, untraced)
    audits: list[str] = []
    record: dict = {"run_digest": run_digest(items, found[0])}

    if args.trace:
        tracer = spans.Tracer()
        installation = spans.Installation(tracer)
        try:
            installation.install()
            traced = run_passes(items, budget, 1, tracer)
        except spans.AuditError as exc:
            audits.append(str(exc))
            traced = []
        finally:
            installation.uninstall()
        record["binding_sites"] = installation.sites
        if traced:
            traced_found = verifier.verify(items, traced)
            record["traced_run_digest"] = run_digest(items, traced_found[0])
            if record["traced_run_digest"] != record["run_digest"]:
                audits.append("traced outputs differ from untraced outputs")
            audits.extend(audit(workload, items, traced))
            metrics = per_layer(spans, traced, untraced)
        else:
            metrics = {}
        record["traced_pass_s"] = [p.seconds for p in traced]
        record["traced_pass_wall_s"] = [p.wall for p in traced]
        record["spans_per_pass"] = [p.snapshot for p in traced]
    else:
        metrics = end_to_end(workload, untraced, setup_samples, verifier)

    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if metrics and emitted != listed:
        audits.append(f"metrics {sorted(set(emitted) ^ set(listed))} disagree with BENCHMARK.json")
    correct = verifier.failed == 0 and not audits
    result = {
        "correct": correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(
        workload=workload.name,
        parts=workload.parts,
        trace=args.trace,
        seconds=args.seconds,
        environment=environment(args.seed),
        items=[item.key for item in items],
        setup_s=quartiles(setup_samples),
        pass_s=quartiles([p.seconds for p in untraced]),
        pass_samples_s=[p.seconds for p in untraced],
        pass_wall_s=[p.wall for p in untraced],
        part_s={f"part{k + 1}_s": part_means(untraced, k) for k in range(len(workload.parts))},
        failures=verifier.messages,
        audit_failures=audits,
        result=result,
    )
    out = HERE / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for message in verifier.messages + audits:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
