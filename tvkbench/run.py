"""tvk benchmark: one workload per run, one JSON result as the last line.

    python3 tvkbench/run.py --workload predict --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, and ``--quick`` runs one set-up and one round
(one untraced and one traced round with ``--trace 1``). See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: a second one gains ~10 % wall time on two vCPUs, doubles
# the CPU time and makes the rounds contend with everything else.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".tvkbench_out")

SETUP_REPS = 3   # setup_s is the median of this many complete set-ups
MIN_ROUNDS = 3   # timed rounds, even when --seconds runs out first

# The host's speed changes by up to ~1.5x within seconds as other tenants
# come and go, and process CPU time changes with it, so the interquartile
# range of ten runs' raw median round times reached 0.37 of their median
# (see README.md). All kinds of work slow
# alike, so a fixed probe timed next to the work measures the current speed.
# Each stretch of work between two probes is divided by the mean time of the
# two probes and multiplied by PROBE_REF_S: the reported times are reference
# seconds, the time the work takes while the probe takes PROBE_REF_S.
PROBE_REF_S = 0.016   # about the probe's time on the host measured in README.md
PROBE_EVERY_S = 0.15  # a mark probes once this much work has gone by


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS, "python": sys.version.split()[0]}


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


class SpeedClock:
    """Times sections of work in reference seconds (see PROBE_REF_S).

    ``section(fn)`` runs ``fn(mark)``; the work calls ``mark()`` between its
    operations, and a mark probes the speed when PROBE_EVERY_S has gone by
    since the last probe. Probe time is not counted as work.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 576)).astype(np.float32)
        self._b = rng.standard_normal((576, 1536)).astype(np.float32)
        self._x = rng.standard_normal((32, 48, 64)).astype(np.float32)
        self._p1 = np.hstack([rng.standard_normal((400, 2)),
                              np.ones((400, 1))])
        self._p2 = self._p1 + 0.01 * rng.standard_normal((400, 3))
        self._np = np
        self._probe()  # warm caches and allocator before the first real probe
        self._last = self._probe()

    def _probe(self) -> float:
        """A few ms of each kind of work the workloads do: float32 GEMMs,
        elementwise passes over feature maps, and a RANSAC-like loop of many
        small float64 numpy calls. It calls nothing in ``tvk``, so a change
        to the package cannot move it."""
        np = self._np
        t0 = time.perf_counter()
        for _ in range(2):
            self._a @ self._b
        x = self._x
        for _ in range(50):
            x = np.maximum(x * 0.5, x * 0.1)[:, :, ::-1].copy() + 1e-3
        rng = np.random.Generator(np.random.Philox(key=0))
        for _ in range(30):
            idx = rng.choice(400, size=8, replace=False)
            a, b = self._p1[idx], self._p2[idx]
            a = (a - a.mean(0)) / a.std()
            b = (b - b.mean(0)) / b.std()
            m = np.stack([b[:, 0] * a[:, 0], b[:, 0] * a[:, 1], b[:, 0],
                          b[:, 1] * a[:, 0], b[:, 1] * a[:, 1], b[:, 1],
                          a[:, 0], a[:, 1], np.ones(8)], axis=1)
            e = np.linalg.svd(m)[2][-1].reshape(3, 3)
            u, _, vt = np.linalg.svd(e)
            e = u @ np.diag([1.0, 1.0, 0.0]) @ vt
            e1, e2 = self._p1 @ e.T, self._p2 @ e
            d = np.sum(self._p2 * e1, axis=1) ** 2 / np.maximum(
                e1[:, 0] ** 2 + e1[:, 1] ** 2 + e2[:, 0] ** 2
                + e2[:, 1] ** 2, 1e-30)
            (d < 1e-4).sum()
        return time.perf_counter() - t0

    def _cut(self) -> None:
        work = time.perf_counter() - self._t0
        probe = self._probe()
        self._ref += work / ((self._last + probe) / 2)
        self._last = probe
        self._t0 = time.perf_counter()

    def _mark(self) -> None:
        if time.perf_counter() - self._t0 >= PROBE_EVERY_S:
            self._cut()

    def section(self, fn):
        """(wall seconds, reference seconds, result) of ``fn(mark)``."""
        self._ref = 0.0
        start = self._t0 = time.perf_counter()
        result = fn(self._mark)
        wall = time.perf_counter() - start
        self._cut()
        return wall, self._ref * PROBE_REF_S, result


def _run_checks(w) -> list:
    try:
        return w.checks()
    except Exception as exc:  # a check that raises is a failed check
        return [("checks", False, repr(exc))]


def _summary(ops, failed_ops, checks, metrics) -> dict:
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}",
              file=sys.stderr)
    failed = failed_ops + sum(not ok for _, ok, _ in checks)
    return {"correct": failed == 0, "attempted": ops + len(checks),
            "failed": failed, "metrics": metrics}


def run_untraced(w, seconds: float, quick: bool) -> dict:
    """Set up SETUP_REPS times, then time identical rounds for ``seconds``.
    Times are medians in reference seconds; the wall-clock medians go to
    standard error."""
    clock = SpeedClock()
    setups = [clock.section(w.setup)[:2]
              for _ in range(1 if quick else SETUP_REPS)]
    rounds, ops, failed = [], 0, 0
    start = time.perf_counter()
    while not rounds or (not quick and (
            time.perf_counter() - start < seconds
            or len(rounds) < MIN_ROUNDS)):
        wall, ref, results = clock.section(w.round)
        rounds.append((wall, ref))
        ops += len(results)
        failed += w.verify_round(results)
    wall_setup, ref_setup = (statistics.median(t) for t in zip(*setups))
    wall_round, ref_round = (statistics.median(t) for t in zip(*rounds))
    print(f"tvkbench wall clock: setup_s {wall_setup:.4f}, pairs_per_s "
          f"{w.pairs_per_round / wall_round:.4f} over {len(rounds)} rounds",
          file=sys.stderr)
    metrics = {
        "setup_s": {"value": ref_setup, "unit": "s"},
        "pairs_per_s": {"value": w.pairs_per_round / ref_round,
                        "unit": "pairs/s"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }
    return _summary(ops, failed, _run_checks(w), metrics)


def run_traced(w, seconds: float, quick: bool, trace_path: str) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics come from the
    traced ones, the tracing overhead from the difference of the two."""
    from tracing import Tracer

    tracer = Tracer()
    w.setup()
    plain, traced, traced_ids = [], [], []
    ops, failed = 0, 0
    start = time.perf_counter()
    k = 0
    while len(traced) < len(plain) or not traced or (
            not quick and time.perf_counter() - start < seconds):
        if k % 2 == 0:
            dt, results = _timed(w.round)
            plain.append(dt)
        else:
            tracer.round = k
            tracer.install()
            try:
                dt, results = _timed(w.round)
            finally:
                tracer.uninstall()
            traced.append(dt)
            traced_ids.append(k)
        ops += len(results)
        failed += w.verify_round(results)
        k += 1
    metrics = tracer.layer_metrics(traced_ids)
    metrics["trace.overhead_pairs_per_s"] = {
        "value": w.pairs_per_round / statistics.median(traced)
        - w.pairs_per_round / statistics.median(plain),
        "unit": "pairs/s"}
    tracer.write(trace_path)
    return _summary(ops, failed, _run_checks(w), metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tvk", "__init__.py")):
        print(f"tvkbench: no tvk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"tvkbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    print("tvkbench env: " + json.dumps(environment()))
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            result = run_traced(w, args.seconds, args.quick, os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            result = run_untraced(w, args.seconds, args.quick)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
