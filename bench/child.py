"""One measured process of the benchmark: import qaw, run suites, report JSON.

Usage: python3 bench/child.py JOB_JSON

JOB_JSON holds ``configs`` (RunConfig fields, each run with ``run_suite``;
empty for an import-only child), ``seed`` (passed as ``rng_seed``) and
``trace`` (install the tracer after the import).  The child prints one JSON
line: the monotonic time at which ``import qaw`` returned, where qaw was
imported from, per run_suite call the wall time and a verdict summary (or
the exception it raised), the times of the reference work sampled during
the calls of an untraced child, the process's own peak RSS, and the trace
summary.  The reference work is not counted in a call's wall time.
"""

import time

import qaw

IMPORTED_NS = time.monotonic_ns()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

from qaw.checks import RunConfig, run_suite  # noqa: E402


PROBE_PERIOD_S = 0.2


def reference_chunk() -> Fraction:
    """Fixed pure-Python work of the kinds qaw does: dict updates, big-int gcd, Fraction sums."""
    terms: dict[int, int] = {}
    total = Fraction(0)
    x = 3 ** 40
    for i in range(5_000):
        terms[i & 63] = terms.get(i & 63, 0) + x * i
        if i % 16 == 0:
            total += Fraction(i + 1, 2 * i + 3)
            x = math.gcd(x * 7 + i, 5 ** 30) + 3 ** 40
    return total


class SpeedProbe:
    """Times reference_chunk every PROBE_PERIOD_S while qaw runs.

    The chunk runs in a SIGALRM handler, i.e. in the main thread between two
    of qaw's bytecodes, so it samples the machine's speed at the moments qaw
    is measured.  qaw runs its checks in the main thread when QAW_THREADS is
    unset.
    """

    def __init__(self):
        self.times: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_chunk()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def summarize(report) -> dict:
    return {
        "passed": report.passed,
        "checks": {c.name: {"passed": c.passed,
                            "points": c.params.get("points"),
                            "failed_points": c.params.get("failed_points"),
                            "runtime_ms": c.runtime_ms}
                   for c in report.checks},
    }


def main(job: dict) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runs = []
    probe = SpeedProbe()
    for i, fields in enumerate(job["configs"]):
        config = RunConfig(**{**fields, "spins": tuple(fields["spins"]),
                              "rng_seed": job["seed"]})
        if tracer is not None:
            tracer.request = i
        probed = len(probe.times)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                with probe:
                    report = run_suite(config.suite, config)
            else:
                report = run_suite(config.suite, config)
        except Exception:
            runs.append({"verify_s": time.perf_counter() - t0,
                         "error": traceback.format_exc(limit=3)})
            continue
        wall = time.perf_counter() - t0 - sum(probe.times[probed:])
        runs.append({"verify_s": wall, "report": summarize(report)})
    return {
        "imported_ns": IMPORTED_NS,
        "qaw_file": qaw.__file__,
        "runs": runs,
        "reference_s": probe.times,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
