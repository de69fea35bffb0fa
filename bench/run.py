"""Benchmark runner for qaw: time to a verified verdict on fixed workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their run_suite configurations and the expected verdict of every
check are in bench/workloads.json; metric names and units are read from
BENCHMARK.json.  It runs one child process at a time (bench/child.py),
each a fresh interpreter, because qaw's lru_cache factories are process-global
and a qaw user pays for them on every run.  Until --seconds have passed it
alternates two import-only children (set-up samples) with one workload child.
The seed is passed to the run_suite calls as rng_seed (see below for the
untraced samples), so one seed gives the same inputs.

The host the benchmark was tuned on (2 vCPUs, shared) changes speed by up to
1.7x, in phases that last from a second to several minutes, on each vCPU
separately.  Two measures keep the result steady.  Each workload child is
pinned to the vCPU on which a short loop runs fastest when it starts, and it
times a fixed piece of reference work (child.reference_chunk, ~3 ms) every
0.2 s while run_suite runs; the reference time is left out of verify_s, and
each sample is scaled by REFERENCE_NOMINAL_S over the median reference time of
its child.  On ten back-to-back exact-444 children at one seed the scaled time
varied by 2.9% (coefficient of variation), the measured one by 5.1%.  Untraced
samples take the seeds seed, seed + 1, ..., because the cost of
structure.represent_morphism depends on its random elements (0.7 s or 1.5 s
at spins (4,4,4) for seeds 1 and 5).  Measured times are printed as well.

Every report is compared with the expected verdict table: a run_suite call
that raised, or whose report has a missing, extra or flipped check, counts as
failed and its times are not used.  The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (run_suite calls;
runs_failed is failed / attempted) and ``metrics``.

--trace 0 reports the end-to-end metrics:
  verify_s     wall time of the workload's run_suite calls per child (summed
               over the sweep), scaled to the nominal reference speed; median
               over the run's valid samples
  setup_s      spawning a child until ``import qaw`` returns; median, scaled
               by the median speed scale of the run's workload children
  peak_rss_mb  the child's own peak RSS (getrusage RUSAGE_SELF); median
--trace 1 alternates untraced and traced children and reports the per-layer
metrics (bench/tracer.py); each span of the first traced child is written to
.bench_out/spans-<workload>-seed<seed>.json.

Exit status 0 when the benchmark ran (``correct`` says whether qaw's verdicts
were right), 2 when it could not run: bad arguments, no qaw source under
src/, or a child that cannot import it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0
SETUP_PROBES_PER_SAMPLE = 2
# Median time of one child.reference_chunk on the tuning host (2 vCPUs of a
# shared Intel Xeon at 2.1 GHz, CPython 3.11) when it runs at full speed.
REFERENCE_NOMINAL_S = 0.0028

CPUS = sorted(os.sched_getaffinity(0))


class FatalError(Exception):
    """The benchmark cannot run here; exit without a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QAW_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def quietest_cpu() -> int | None:
    """The allowed CPU on which a short pure-Python loop runs fastest right now."""
    timings = []
    try:
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            counts: dict[int, int] = {}
            for i in range(100_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + i
            timings.append((time.perf_counter() - t0, cpu))
        os.sched_setaffinity(0, CPUS)
    except OSError:
        return None  # affinity cannot be set here: leave placement to the OS
    return min(timings)[1]


def spawn(job: dict, timeout: float, cpu: int | None = None
          ) -> tuple[dict | None, float, str | None]:
    """Run one child, pinned to cpu if given; return its output, wall time and error."""
    cmd = [sys.executable, str(BENCH / "child.py"), json.dumps(job)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    spawned_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0), preexec_fn=pin)
    except subprocess.TimeoutExpired:
        return None, (time.monotonic_ns() - spawned_ns) / 1e9, "timed out"
    wall = (time.monotonic_ns() - spawned_ns) / 1e9
    if proc.returncode != 0:
        return None, wall, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, wall, f"unreadable output: {proc.stdout[-500:]!r}"
    out["setup_s"] = (out["imported_ns"] - spawned_ns) / 1e9
    return out, wall, None


def verdict_errors(expected: dict, run: dict) -> list[str]:
    """Differences between one run_suite result and its expected verdicts."""
    if "error" in run:
        return ["raised " + run["error"].strip().splitlines()[-1]]
    report = run["report"]
    want, got = expected["checks"], report["checks"]
    errors = [f"missing check {n}" for n in sorted(set(want) - set(got))]
    errors += [f"extra check {n}" for n in sorted(set(got) - set(want))]
    errors += [f"{n} {'passed' if got[n]['passed'] else 'failed'}"
               for n in sorted(set(want) & set(got)) if got[n]["passed"] != want[n]]
    if report["passed"] != expected["passed"]:
        errors.append(f"suite verdict {report['passed']}")
    for name, least in expected.get("min_failed_points", {}).items():
        failed = got.get(name, {}).get("failed_points")
        if failed is None or failed < least:
            errors.append(f"{name} failed at {failed} points, expected at least {least}")
    points = expected["config"].get("eval_points")
    if expected["config"].get("mode") == "eval":
        errors += [f"{n} used {c['points']} points, expected {points}"
                   for n, c in sorted(got.items())
                   if c["points"] is not None and c["points"] != points]
    return errors


def verdicts(run: dict) -> dict:
    return {n: c["passed"] for n, c in run["report"]["checks"].items()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            table: dict) -> dict:
    """Run children until the time is up; return samples and failure counts."""
    expected = table[workload]
    job = {"configs": [e["config"] for e in expected], "seed": seed}
    start = time.monotonic()

    def remaining() -> float:
        return HARD_LIMIT_S - (time.monotonic() - start)

    def probe() -> dict:
        out, _, error = spawn({"configs": [], "seed": seed, "trace": False}, remaining())
        if error is not None:
            raise FatalError(f"an import-only child failed: {error}")
        if not Path(out["qaw_file"]).resolve().is_relative_to(SRC.resolve()):
            raise FatalError(f"qaw was imported from {out['qaw_file']}, not from {SRC}")
        return out

    probe()  # warm-up: compiles bytecode, checks where qaw comes from
    kinds = ["plain", "traced"] if trace else ["plain"]
    samples = {k: [] for k in kinds}
    durations = {k: [] for k in kinds}
    setups: list[float] = []
    attempted = failed = 0
    plain_verdicts: list[dict] = []
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        turn += 1
        needed = max(durations[kind], default=0.0) + 0.3
        if all(durations.values()) and time.monotonic() - start + needed > seconds:
            break
        if remaining() < 2:
            break
        for _ in range(SETUP_PROBES_PER_SAMPLE):
            setups.append(probe()["setup_s"])
        # Untraced samples take the seeds seed, seed + 1, ...: the random
        # elements of structure.represent_morphism change its cost by up to 2x,
        # so a median over several inputs keeps one input from setting verify_s.
        # Traced samples all take seed, so their call counts must agree.
        sample_seed = seed if kind == "traced" else seed + len(durations["plain"])
        out, wall, error = spawn({**job, "seed": sample_seed, "trace": kind == "traced"},
                                 remaining(), quietest_cpu())
        durations[kind].append(wall)
        attempted += len(expected)
        if error is not None:
            failed += len(expected)
            print(f"{kind} child failed: {error}", file=sys.stderr)
            continue
        setups.append(out["setup_s"])
        errors = [] if len(out["runs"]) == len(expected) else ["missing run_suite results"]
        for want, run in zip(expected, out["runs"]):
            errors += verdict_errors(want, run)
        if not errors:
            runs_verdicts = [verdicts(r) for r in out["runs"]]
            if not plain_verdicts and kind == "plain":
                plain_verdicts = runs_verdicts
            elif plain_verdicts and runs_verdicts != plain_verdicts:
                errors.append("traced verdicts differ from untraced verdicts")
        if errors:
            failed += len(expected)
            print(f"{kind} child disagrees with the verdict table: "
                  + "; ".join(errors[:10]), file=sys.stderr)
            continue
        out["verify_s"] = sum(r["verify_s"] for r in out["runs"])
        out["attributed_s"] = sum(c["runtime_ms"] for r in out["runs"]
                                  for c in r["report"]["checks"].values()) / 1000
        out["points_used"] = sum(max((c["points"] or 0 for c in r["report"]["checks"].values()),
                                     default=0) for r in out["runs"])
        samples[kind].append(out)
    return {"samples": samples, "setups": setups, "attempted": attempted,
            "failed": failed}


def speed_scale(sample: dict) -> float:
    """REFERENCE_NOMINAL_S over the median time of the reference work sampled in a child."""
    return REFERENCE_NOMINAL_S / statistics.median(sample["reference_s"])


def end_to_end(result: dict) -> dict:
    plain = result["samples"]["plain"]
    return {
        "verify_s": statistics.median(s["verify_s"] * speed_scale(s) for s in plain),
        "setup_s": statistics.median(result["setups"])
        * statistics.median(speed_scale(s) for s in plain),
        "peak_rss_mb": statistics.median(s["peak_rss_kib"] / 1024 for s in plain),
    }


def per_layer(names: list[str], result: dict) -> tuple[dict, list[str]]:
    """Per-layer values by metric name; names with no value are returned as absent."""
    plain, traced = result["samples"]["plain"], result["samples"]["traced"]
    summaries = [s["trace"] for s in traced]
    first = summaries[0]
    plain_verify = statistics.median(s["verify_s"] for s in plain)
    traced_verify = statistics.median(s["verify_s"] for s in traced)
    constructions = first["keys"].get("scalars.point_domain_init", {}).get("calls", 0)

    def median_of(get):
        return statistics.median(get(t) for t in summaries)

    def check_span_s(t):
        return sum(v["s"] for k, v in t["keys"].items() if k.startswith("checks."))

    special = {
        "checks.runner_s": statistics.median(
            s["verify_s"] - check_span_s(s["trace"]) for s in traced),
        "checks.eval_point_yield":
            traced[0]["points_used"] / constructions if constructions else None,
        "checks.report_attributed_ratio": statistics.median(
            s["attributed_s"] / (s["verify_s"] + sum(s["reference_s"])) for s in plain),
        "trace.overhead_ratio": traced_verify / plain_verify,
    }
    values, absent = {}, []
    for name in names:
        head, field = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif field == "builds":
            value = first["builds"].get(head)
        elif field == "self_s" and head in first["layer_self_s"]:
            value = median_of(lambda t: t["layer_self_s"][head])
        elif head not in first["keys"]:
            value = None
        elif field == "calls":
            value = first["keys"][head]["calls"]
        elif field in ("terms_out", "nnz_out"):
            value = first["keys"][head]["out"]
        else:
            value = median_of(lambda t: t["keys"][head][field])
        if value is None:
            absent.append(name)
        else:
            values[name] = value
    return values, absent


def count_mismatches(result: dict) -> list[str]:
    """Traced children of one run must agree on every call count."""
    summaries = [s["trace"] for s in result["samples"]["traced"]]
    return sorted({k for t in summaries[1:] for k, v in t["keys"].items()
                   if v["calls"] != summaries[0]["keys"][k]["calls"]})


def write_spans(workload: str, seed: int, result: dict):
    sample = result["samples"]["traced"][0]
    spans = sample["trace"]["spans"]
    t0 = min((s[4] for s in spans), default=0)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    rows = [{"id": i, "parent": p, "request": r, "name": n,
             "start_s": (a - t0) / 1e9, "end_s": (b - t0) / 1e9}
            for i, p, r, n, a, b in spans]
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps(rows) + "\n")
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec() -> tuple[dict, dict]:
    if not (SRC / "qaw" / "__init__.py").is_file():
        raise FatalError(f"no qaw source at {SRC / 'qaw'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        table = json.loads((BENCH / "workloads.json").read_text())
    except (OSError, ValueError) as exc:
        raise FatalError(f"cannot read the benchmark definition: {exc}") from exc
    return spec, table


def run(args, spec: dict, table: dict) -> dict:
    """Measure one workload and print the report; return the result line."""
    if args.workload not in table:
        raise FatalError(f"unknown workload {args.workload!r}; choose from {sorted(table)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), table)
    attempted, failed = result["attempted"], result["failed"]
    plain = result["samples"]["plain"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs_failed {failed}/{attempted}  setup samples {len(result['setups'])}")
    metrics: dict = {}
    correct = failed == 0
    if args.trace:
        traced = result["samples"]["traced"]
        if plain and traced:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values, absent = per_layer(names, result)
            for name in names:
                # An absent metric reads 0 in the result line, which holds only
                # value and unit; the report lines above it mark it absent.
                metrics[name] = {"value": values.get(name, 0), "unit": units[name]}
                print(f"  {name:45s} {metrics[name]['value']:>14.6g} {units[name]}"
                      + ("  (absent)" if name in absent else ""))
            print(f"  traced samples {len(traced)}, untraced samples {len(plain)}; "
                  "Fraction arithmetic is not wrapped: its time is in the self time "
                  "of the qaw layer that calls it")
            for target in traced[0]["trace"]["absent"]:
                print(f"  absent wrap target: {target}")
            mismatched = count_mismatches(result)
            if mismatched:
                correct = False
                print(f"  call counts differ between traced children: {mismatched}",
                      file=sys.stderr)
            print(f"  spans: {write_spans(args.workload, args.seed, result)}")
    elif plain:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, value in end_to_end(result).items():
            metrics[name] = {"value": value, "unit": units[name]}
        times = sorted(s["verify_s"] for s in plain)
        scales = sorted(speed_scale(s) for s in plain)
        print(f"  speed scale  median {statistics.median(scales):.4f}  min {scales[0]:.4f}  "
              f"max {scales[-1]:.4f} (reference work: nominal / measured time)")
        print(f"  verify_s     {metrics['verify_s']['value']:.4f} s scaled; measured per "
              f"sample: min {times[0]:.4f}  median {statistics.median(times):.4f}  "
              f"max {times[-1]:.4f} s  ({len(times)} samples)")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s scaled; measured median "
              f"{statistics.median(result['setups']):.4f} s "
              f"({len(result['setups'])} samples)")
        print(f"  peak_rss_mb  median {metrics['peak_rss_mb']['value']:.2f} MiB")
    if not metrics:
        correct = False
        metrics = {m["name"]: {"value": 0, "unit": m["unit"]}
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec, table = load_spec()
        line = run(args, spec, table)
    except FatalError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
