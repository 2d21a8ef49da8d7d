"""Benchmark entry point: one workload, one seed, one measuring window.

    python3 bench/run.py --workload triage-cascade --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and nowhere else. With ``--trace 0`` the
end-to-end metrics are measured with tracing off. With ``--trace 1``
untraced and traced calls alternate: the traced ones give the per-layer
metrics, and the gap between the two medians is the tracing overhead.
Load is one client in a closed loop. Human-readable lines come first;
the last line of standard output is the JSON result. Details (the
environment, every sample, digests, failures and, when traced, every
span) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# BLAS runs single-threaded: with the loopback stub's thread beside it,
# threads doing work never outnumber two cores, and one thread keeps
# run-to-run spread low on a shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_CALLS = 3
# Every set-up and call is bracketed by a fixed calibration job, and its
# wall time is divided by the mean of the two calibrations around it and
# multiplied by CALIBRATION_REF_S: seconds at the speed at which the
# calibration takes CALIBRATION_REF_S. A 2-vCPU virtual machine shared
# with other tenants speeds up and slows down by 20% and more over
# minutes. Over 150 s of three workloads there, the medians of raw call
# times in 10 s windows spread by 0.17-0.21 (interquartile range over
# median), and the normalised ones by 0.04-0.09.
CALIBRATION_REF_S = 0.035

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("queries_per_s", "1/s"),
              ("peak_rss_mb", "MiB"), ("recall", "ratio"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bugdedup" / "__init__.py").is_file():
        print(f"no program source at {src / 'bugdedup'}; run from a checkout root", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # The loopback stub must never be reached through a proxy from the environment.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    sys.path.insert(0, str(src))
    import bugdedup

    if Path(bugdedup.__file__).resolve().parent != (src / "bugdedup").resolve():
        print(f"bugdedup imported from {bugdedup.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.SPECS)}",
              file=sys.stderr)
        return 2
    bench = Bench(workloads, spec, args.seed, args.seconds, bool(args.trace))
    try:
        bench.run()
    finally:
        bench.close()
    if not bench.untraced:
        print(f"no call of {spec.name} completed: {bench.failures[:3]}", file=sys.stderr)
        return 1
    result = bench.report()
    print(json.dumps(result))
    return 0


class Bench:
    """One process's set-ups, calls, checks and results for one workload."""

    def __init__(self, workloads, spec, seed: int, seconds: float, trace: bool) -> None:
        import numpy as np
        from tracing import Tracer

        self.wl, self.spec, self.seed, self.seconds, self.trace = (
            workloads, spec, seed, seconds, trace
        )
        self.tracer = Tracer() if trace else None
        self.env = environment(np, seed, spec.name)
        self.state = None
        self.config: list[dict] = []
        self.calibrate = Calibration(np)
        self.calibrate()  # the first runs pay for page faults and cold caches
        self.cals: list[float] = []
        # (raw seconds, index of the calibration just before)
        self.setup_s: list[tuple[float, int]] = []
        self.untraced: list[tuple[float, int]] = []
        self.traced: list[tuple[float, int]] = []
        self.outs: dict[int, object] = {}  # traced unit id -> CallOutput
        self.last = None
        self.calls = 0
        self.partitions: dict[int, object] = {}  # partition -> its first CallOutput
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        workdir = OUT_DIR / f"work-{self.spec.name}"
        for _ in range(SETUP_REPEATS):
            self.close()
            gc.collect()
            self.cals.append(self.calibrate())
            with self._unit("setup"):
                start = time.perf_counter()
                self.state = self.wl.setup(self.spec, self.seed, workdir)
                self.setup_s.append((time.perf_counter() - start, len(self.cals) - 1))
        self.config = [c.to_json() for c in self.state.configs]
        self._call(traced=False, timed=False)  # warm-up; its output anchors the digest
        start = time.perf_counter()
        traced = False
        while True:
            elapsed = time.perf_counter() - start
            enough = min(len(self.untraced), len(self.traced) if self.trace else MIN_CALLS)
            covered = len(self.partitions) == len(self.state.configs)
            # Past the window, stop once every side has MIN_CALLS samples
            # and every partition has run (recall and precision need all of
            # them); give up at four windows.
            if elapsed >= self.seconds and (
                enough >= MIN_CALLS and covered or elapsed >= 4 * self.seconds
            ):
                break
            self._call(traced=traced, timed=True)
            traced = self.trace and not traced
        self.cals.append(self.calibrate())

    def _unit(self, kind: str):
        return self.tracer.unit(kind) if self.tracer is not None else nullcontext()

    def _call(self, traced: bool, timed: bool) -> None:
        partition = self.calls % len(self.state.configs)
        self.calls += 1
        gc.collect()
        self.cals.append(self.calibrate())
        self.attempted += 1
        try:
            with self._unit("call") if traced else nullcontext() as unit:
                start = time.perf_counter()
                raw = self.wl.call(self.state, partition, self.tracer if traced else None)
                elapsed = time.perf_counter() - start
            out = self.wl.summarize(self.state, raw)
            made, failures = self.wl.check(self.state, partition, out)
        except Exception:  # a failing call is counted and the loop goes on
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=3))
            return
        self.attempted += made + out.ops
        self.failed += len(failures) + out.failed_ops
        self.failures.extend(failures)
        if out.failed_ops:
            self.failures.append(f"{out.failed_ops} remote requests got a non-200 reply")
        self.last = out
        self.partitions.setdefault(partition, out)
        sample = (elapsed, len(self.cals) - 1)
        if traced:
            self.outs[unit] = out
            self.traced.append(sample)
        elif timed:
            self.untraced.append(sample)

    def normalised(self, samples: list[tuple[float, int]]) -> list[float]:
        """Raw seconds scaled by the calibrations before and after each sample."""
        return [
            raw * 2.0 * CALIBRATION_REF_S / (self.cals[i] + self.cals[i + 1])
            for raw, i in samples
        ]

    def close(self) -> None:
        if self.state is not None:
            self.wl.teardown(self.state)
            self.state = None

    # ------------------------------------------------------------ results

    def report(self) -> dict:
        out = self.last
        setups, untraced, traced = (
            self.normalised(x) for x in (self.setup_s, self.untraced, self.traced)
        )
        run_s = statistics.median(untraced)
        # Micro recall and precision over the decisions of every partition.
        tp = sum(o.tp for o in self.partitions.values())
        fp = sum(o.fp for o in self.partitions.values())
        fn = sum(o.fn for o in self.partitions.values())
        self.attempted += 1  # every partition ran, so recall and precision cover them all
        if len(self.partitions) < len(self.config):
            self.failed += 1
            self.failures.append(
                f"only {len(self.partitions)} of {len(self.config)} partitions ran"
            )
        values = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "queries_per_s": out.n_queries / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recall": tp / (tp + fn) if tp + fn else 0.0,
            "precision": tp / (tp + fp) if tp + fp else 0.0,
        }
        error_rate = self.failed / self.attempted
        name = self.spec.name
        print(f"{name} seed={self.seed}: n={out.n_queries} m={out.db_size} k={self.wl.K} "
              f"partitions={len(self.partitions)} tp={tp} fp={fp} fn={fn}")
        for p, o in sorted(self.partitions.items()):
            print(f"{name} partition {p}: ledger={o.ledger} sha256={o.digest}")
        for key, normal, samples in (("setup_s", setups, self.setup_s),
                                     ("run_s", untraced, self.untraced)):
            raw = [r for r, _ in samples]
            print(f"{name}: {key} = {values[key]:.4f} s (n={len(raw)}; {spread(normal)}; "
                  f"raw {spread(raw)})")
        for key, unit in END_TO_END[2:] + (("precision", "ratio"),):
            print(f"{name}: {key} = {values[key]:.4f} {unit}")
        print(f"{name}: error_rate = {error_rate:.4f} ratio ({self.failed} of {self.attempted})")
        for failure in self.failures[:5]:
            print(f"{name}: FAILED {failure.strip()}")

        if self.trace:
            from layers import per_layer

            metrics = per_layer(self.tracer, self.outs, traced, untraced)
            for key, (value, unit) in metrics.items():
                print(f"{name}: {key} = {value:.6g} {unit}")
            if self.tracer.missing:
                print(f"{name}: missing wrapped names: {sorted(self.tracer.missing)}")
        else:
            metrics = {key: (values[key], unit) for key, unit in END_TO_END}

        self.env["loadavg_after"] = os.getloadavg()
        details = {
            "env": self.env,
            "workload": {**self.spec.__dict__, "config": self.config},
            "n_queries": out.n_queries,
            "db_size": out.db_size,
            "partitions": {p: {"ledger": o.ledger, "sha256": o.digest, "tp": o.tp, "fp": o.fp,
                               "fn": o.fn} for p, o in sorted(self.partitions.items())},
            "calibration_ref_s": CALIBRATION_REF_S,
            "calibrations_s": self.cals,
            "setup_s": {"raw": self.setup_s, "normalised": setups},
            "run_s_untraced": {"raw": self.untraced, "normalised": untraced},
            "run_s_traced": {"raw": self.traced, "normalised": traced},
            "error_rate": error_rate,
            "failures": self.failures[:20],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        stem = OUT_DIR / f"{name}-seed{self.seed}-trace{int(self.trace)}"
        if self.trace:
            details["missing_wrappers"] = sorted(self.tracer.missing)
        stem.with_suffix(".json").write_text(json.dumps(details, indent=1, default=str) + "\n")
        if self.trace:
            with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
                fh.write(json.dumps(["name", "start", "end", "parent", "unit", "self_s"]) + "\n")
                for row in self.tracer.to_rows():
                    fh.write(json.dumps(row) + "\n")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def spread(samples: list[float]) -> str:
    if len(samples) < 2:
        return f"only {samples}"
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return f"median {median:.4f}, q1 {q1:.4f}, q3 {q3:.4f}"


class Calibration:
    """Fixed work resembling the workloads' mix; calling it returns its
    wall time. It hashes and counts tokens, selects a top-k from scored
    tuples, and scans an 8 MiB matrix with BLAS. It uses nothing from
    ``src/``, so a change to the program cannot move it."""

    def __init__(self, np) -> None:
        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.normal(size=(300, 1024))
        self.large = rng.normal(size=(1000, 1024))
        self.vector = rng.normal(size=1024)
        words = [f"w{i}" for i in range(3000)]
        self.texts = [
            " ".join(words[(i * 7 + j * 13) % 3000] for j in range(25)) for i in range(400)
        ]

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(75_000):
            total += i * i
        out = self.np.zeros((len(self.texts), 256))
        for row, text in enumerate(self.texts):
            counts: dict[str, int] = {}
            for token in text.split():
                counts[token] = counts.get(token, 0) + 1
            for token, count in counts.items():
                h = 0xCBF29CE484222325
                for byte in token.encode():
                    h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
                out[row, h % 256] += count
        for _ in range(100):
            self.small @ self.vector
        scores = self.large @ self.vector
        scored = [(f"b{i:06d}", float(scores[i])) for i in range(len(scores))]
        heapq.nsmallest(20, scored, key=lambda c: (-c[1], c[0]))
        for _ in range(6):
            self.large @ self.vector
        return time.perf_counter() - start


def environment(np, seed: int, workload: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's Python sources, for checkouts without git."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
