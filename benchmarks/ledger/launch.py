"""One fresh-process launch of one ledger workload (started by run.py).

    python3 benchmarks/ledger/launch.py '<json config>'

The config names the ``workload``, ``seed``, ``seconds``, ``src`` (the
checkout's ``src`` directory), whether the launch is the one that
``measure``s the closed loop, whether it records per-layer spans
(``trace``), and ``calls`` (a fixed call count instead of a time budget,
or null).  The launch prints one JSON object as its last stdout line.

Set-up time runs from the top of this file, so it covers importing
numpy, scipy and ``repro`` as well as the workload's own set-up.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Fewest untraced calls a measuring launch makes even when the time
#: budget runs out first; a tracing launch makes as many traced ones.
MIN_CALLS = 3
#: Oracle problems kept verbatim per launch; the rest are only counted.
MAX_PROBLEMS = 5
#: Longest a calibration sample is reused before it is measured again.
CALIB_EVERY_S = 0.5


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus numpy loop (host speed)."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    x = np.linspace(1.0, 2.0, 100_000)
    for _ in range(50):
        x = np.sqrt(x * 1.0001 + 0.5)
    return time.perf_counter() - t0


class HostSpeed:
    """Calibration samples taken between the timed calls.

    The host's speed drifts by up to 1.6x over tens of seconds, so each
    timed call is scaled (in ``run.py``) by the mean of the calibration
    taken just before it and the first one taken after it.
    """

    def __init__(self) -> None:
        self.samples = []
        self._taken_at = float("-inf")

    def take(self) -> int:
        """Calibrate now; returns the sample's index."""
        self.samples.append(calibrate())
        self._taken_at = time.perf_counter()
        return len(self.samples) - 1

    def mark(self) -> int:
        """Index of a sample at most :data:`CALIB_EVERY_S` old."""
        if time.perf_counter() - self._taken_at >= CALIB_EVERY_S:
            return self.take()
        return len(self.samples) - 1

    def around(self, before: int) -> float:
        """Calibration seconds around a call that followed ``before``."""
        return (self.samples[before] + self.samples[before + 1]) / 2


class Outcomes:
    """Attempted and failed calls: a call fails when it raises or when
    its result differs from the first successful call's."""

    def __init__(self, same):
        self.same = same
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None
        self._key = None

    def add(self, result, error) -> None:
        self.attempted += 1
        if error is None:
            key = self.same(result)
            if self.first is None:
                self.first, self._key = result, key
                return
            if key == self._key:
                return
            error = "result differs from the first call's"
        self.failed += 1
        self.note(error)

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def timed(fn):
    """(wall seconds, result or None, error text or None) of ``fn()``."""
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failing call is counted, not fatal
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


def main(cfg) -> None:
    src = Path(cfg["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not {src}")
    import cases
    import spans

    layers = None
    if cfg["trace"]:
        spans.import_all()
        layers = spans.LayerTrace()
        layers.install()
    workload = cases.WORKLOADS[cfg["workload"]]()
    workload.setup(cfg["seed"])
    setup_s = time.perf_counter() - START
    phases = {}
    if layers is not None:
        phases["setup"] = layers.take()

    host = HostSpeed()
    outcomes = Outcomes(workload.same)
    before = host.take()
    first_call_s, result, error = timed(workload.call)
    host.take()
    calib_s = host.around(before)
    outcomes.add(result, error)
    if layers is not None:
        phases["first"] = layers.take()
        layers.restore()

    timings = {False: [], True: []}  # traced? -> [(seconds, sample before)]
    if cfg["measure"]:
        steady = {"layers": {}, "ratios": {}}
        deadline = time.perf_counter() + cfg["seconds"]
        while True:
            traced = layers is not None and len(timings[False]) > len(timings[True])
            before = host.mark()
            if traced:
                layers.install()
            dt, result, error = timed(workload.call)
            if traced:
                layers.restore()
                spans.add_totals(steady, layers.take())
            timings[traced].append((dt, before))
            outcomes.add(result, error)
            n_calls, n_traced = len(timings[False]), len(timings[True])
            if cfg["calls"] is not None:
                enough = n_calls + n_traced >= cfg["calls"]
            else:
                enough = time.perf_counter() >= deadline and n_calls >= MIN_CALLS
            if enough and (layers is None or n_traced >= n_calls):
                break
        host.take()
        if layers is not None:
            n = len(timings[True])
            steady["layers"] = {
                k: [c / n, s / n] for k, (c, s) in steady["layers"].items()
            }
            steady["ratios"] = {
                k: [u / n, a / n] for k, (u, a) in steady["ratios"].items()
            }
            phases["steady"] = steady
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = {}
    if outcomes.first is None:
        outcomes.note("no call succeeded")
    else:
        try:
            outputs = workload.outputs(outcomes.first)
            if cfg["measure"]:
                workload.verify(outcomes.first)
        except Exception as exc:  # every call matched the rejected result
            outcomes.failed = outcomes.attempted
            outcomes.note(f"verify: {type(exc).__name__}: {exc}")

    report = {
        "setup": [setup_s, calib_s],
        "first_call": [first_call_s, calib_s],
        "calls": [[dt, host.around(k)] for dt, k in timings[False]],
        "traced_calls": [[dt, host.around(k)] for dt, k in timings[True]],
        "calib_s": statistics.median(host.samples),
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "problems": outcomes.problems,
        "outputs": outputs,
        "phases": phases,
        "rss_mb": rss_mb,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
