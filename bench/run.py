"""pqvol benchmark: one workload, end-to-end or per-layer metrics, one JSON line.

Run from the root of a checkout:

    python3 bench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones (`ops_per_s`, `setup_s`, `peak_rss_mb`); with `--trace 1`
they are the per-layer ones. pqvol is imported from `src/` of the checkout
and nowhere else; without it the benchmark exits with status 2.

The work happens in child interpreters: several fresh starts that only
import `pqvol.cli` and build the inputs (their median wall time is
`setup_s`), and one measuring process, so that its peak memory is its own.

Times are scaled to a reference machine speed. The host's speed drifts
with other tenants' load: a fixed loop runs up to 70 % slower for seconds
to minutes at a time, and process CPU time slows with it. So a fixed
pure-Python loop that calls no pqvol code runs beside the measured work,
and `ops_per_s` and `setup_s` are scaled by the loop's mean time over its
uncontended time, `CALIBRATION_REF_S`. Program changes move them; the
machine's drift mostly cancels.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh starts per run for setup_s, one takes about 0.3 s. Half run before
# the measurement and half after it, so the median spans the run.
SETUP_STARTS = 10
IMPORT_PROBES = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 170
WORKLOADS = ("enumerate", "plan-outerplanar", "certify", "shard")
# The calibration loop's wall time on an uncontended core of the machine
# the benchmark was written on, and how often it runs: once per this much
# time spent in timed calls, so its samples spread evenly over that time.
CALIBRATION_REF_S = 2.5e-3
CALIBRATION_SPACING_S = 0.05
# Calibration samples a set-up probe takes, half before and half after
# its set-up work.
PROBE_CALIBRATIONS = 8


def _use_checkout_src() -> None:
    if not (SRC / "pqvol" / "__init__.py").is_file():
        print(f"error: no pqvol package under {SRC}; run from a pqvol checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]


def calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop that calls no pqvol code."""
    start = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 977] = d.get(i % 977, 0) + i
    return time.perf_counter() - start


def _child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, cwd=ROOT
    )


# ---------------------------------------------------------------------------
# set-up probe: a fresh interpreter that imports pqvol.cli and builds inputs


def probe(workload: str, seed: int) -> None:
    # Calibration samples bracket the set-up work, in the probe itself, so
    # on the core that did that work.
    calib = [calibration_loop() for _ in range(PROBE_CALIBRATIONS // 2)]
    _use_checkout_src()
    import pqvol.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    import workloads

    workloads.make_inputs(workload, seed)
    calib += [calibration_loop() for _ in range(PROBE_CALIBRATIONS // 2)]
    print(json.dumps(calib))


def setup_probe_times(workload: str, seed: int, count: int) -> list[float]:
    """Scaled set-up times of `count` fresh starts; the probe's own
    calibration samples are timed by it and taken out of its wall time."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = _child([str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)])
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        calib = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((wall - sum(calib)) * CALIBRATION_REF_S / statistics.fmean(calib))
    return times


def import_seconds() -> dict[str, float]:
    """Cumulative `-X importtime` figures for `import pqvol.cli`, medians of probes."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pqvol.cli"
    pqvol_s, numpy_s = [], []
    for _ in range(IMPORT_PROBES):
        proc = _child(["-X", "importtime", "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed:\n{proc.stderr}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].rstrip()] = int(parts[1]) / 1e6
        # pqvol/__init__ and pqvol.cli are the two top-level entries.
        pqvol_s.append(cumulative.get(" pqvol", 0.0) + cumulative.get(" pqvol.cli", 0.0))
        numpy_s.append(max((v for k, v in cumulative.items() if k.strip() == "numpy"), default=0.0))
    return {"import.pqvol_s": statistics.median(pqvol_s),
            "import.numpy_s": statistics.median(numpy_s)}


# ---------------------------------------------------------------------------
# measuring process


class Runner:
    """Runs rounds of operations and keeps what the checks found."""

    def __init__(self, wl, ops, seed: int) -> None:
        self.wl = wl
        self.ops = ops
        self.rng = random.Random(seed ^ 0x5EED)
        self.errors: list[str] = []
        self.failed: list[str] = []
        self.attempted = 0
        self.digests: dict[int, object] = {}
        self.plans: list = []

    def rounds(self, seconds: float, rec=None) -> tuple[list[list[float]], list[float]]:
        """Whole rounds of the operations while the next one fits in `seconds`.

        Returns each operation's timed calls, one list per operation, and
        the calibration loop's times, one per CALIBRATION_SPACING_S of
        timed calls. Neither the checks between calls nor the calibration
        loop is timed as part of a call. The first result of an
        operation gets the full checks, every later one the quick ones and
        a comparison with the first. With a recorder, each call is a root
        span and the planner results of the first round are kept.
        """
        wl = self.wl
        times: list[list[float]] = [[] for _ in self.ops]
        calib = [calibration_loop()]
        busy = 0.0
        deadline = time.perf_counter() + seconds
        last = 0.0
        done = 0
        while done < MIN_ROUNDS or time.perf_counter() + last <= deadline:
            round_start = time.perf_counter()
            for i, op in enumerate(self.ops):
                self.attempted += 1
                span = rec.open(f"op.{op.family}") if rec else None
                start = time.perf_counter()
                try:
                    result = wl.run(op)
                except Exception as exc:  # counted, reported, and the run goes on
                    self.failed.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if rec:
                        rec.close(span)
                elapsed = time.perf_counter() - start
                times[i].append(elapsed)
                busy += elapsed
                while busy >= len(calib) * CALIBRATION_SPACING_S:
                    calib.append(calibration_loop())
                self.errors.extend(wl.quick_errors(op, result))
                digest = wl.digest(op, result)
                if i not in self.digests:
                    self.digests[i] = digest
                    self.errors.extend(wl.full_errors(op, result, self.rng))
                elif self.digests[i] != digest:
                    self.errors.append(f"{op.label}: result changed between rounds")
                if rec and done == 0 and op.kind == "nvol":
                    self.plans.append(result)
                del result
            done += 1
            last = time.perf_counter() - round_start
        return times, calib


def raw_rate(times: list[list[float]]) -> float:
    """Operations completed per second of timed calls."""
    return sum(map(len, times)) / sum(map(sum, times))


def rate(times: list[list[float]], calib: list[float]) -> float:
    """`raw_rate` scaled to the reference speed of the calibration loop."""
    return raw_rate(times) * statistics.fmean(calib) / CALIBRATION_REF_S


def _peak_rss_mb(pool_workers: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * largest_child) / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _use_checkout_src()
    import workloads as wl

    if not trace:
        runner = Runner(wl, wl.make_inputs(workload, seed), seed)
        times, calib = runner.rounds(seconds)
        metrics = {
            "ops_per_s": rate(times, calib),
            "peak_rss_mb": _peak_rss_mb(wl.SHARD_WORKERS if workload == "shard" else 0),
        }
        notes = [
            f"{max(map(len, times))} rounds of {len(times)} operations",
            f"unscaled {raw_rate(times):.4f} ops/s; calibration loop mean "
            f"{statistics.fmean(calib) * 1e3:.3f} ms over {len(calib)} samples "
            f"(reference {CALIBRATION_REF_S * 1e3:g} ms)",
        ]
    else:
        import tracing

        rec = tracing.Recorder()
        rec.install()
        ops = wl.make_inputs(workload, seed)
        rec.uninstall()
        input_spans = len(rec.names)
        runner = Runner(wl, ops, seed)
        plain, plain_calib = runner.rounds(seconds / 2)
        rec.install()
        first = len(rec.names)
        traced, traced_calib = runner.rounds(seconds / 2, rec)
        rec.uninstall()
        metrics = tracing.layer_metrics(
            rec, first, max(map(len, traced)), input_spans, ops, runner.plans
        )
        metrics["trace.overhead"] = rate(traced, traced_calib) / rate(plain, plain_calib)
        if workload == "shard":
            metrics.update(shard_metrics(ops))
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"trace-{workload}-{seed}.tsv")
        notes = []
    return {
        "errors": runner.errors,
        "failed": runner.failed,
        "attempted": runner.attempted,
        "metrics": metrics,
        "notes": [op.extra["note"] for op in runner.ops if "note" in op.extra] + notes,
    }


def shard_metrics(ops) -> dict[str, float]:
    """Serial over 2-worker time per shard graph, and the pool's start-up cost."""
    from pqvol import draconian, graphs

    import workloads as wl

    metrics = {}
    for op in ops:
        times = {}
        for workers in (1, wl.SHARD_WORKERS):
            start = time.perf_counter()
            draconian.count(op.graph, workers=workers)
            times[workers] = time.perf_counter() - start
        metrics[f"shard.speedup.{op.label.replace(':', '-')}"] = times[1] / times[wl.SHARD_WORKERS]
    path = graphs.generate("path", 2)
    diffs = []
    for _ in range(5):
        start = time.perf_counter()
        draconian.count(path, workers=1)
        serial = time.perf_counter() - start
        start = time.perf_counter()
        draconian.count(path, workers=wl.SHARD_WORKERS)
        diffs.append(time.perf_counter() - start - serial)
    metrics["shard.pool_start_s"] = statistics.median(diffs)
    return metrics


# ---------------------------------------------------------------------------
# command line


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.measure:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    _use_checkout_src()
    probes = 0 if args.trace else SETUP_STARTS
    setup = setup_probe_times(args.workload, args.seed, probes // 2)
    proc = _child([str(HERE / "run.py"), "--measure", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)])
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    setup += setup_probe_times(args.workload, args.seed, probes - len(setup))
    for line in child.get("notes", []):
        print(f"# {line}")
    for line in child["failed"] + child["errors"]:
        print(f"! {line}")

    if args.trace:
        metrics = {**child["metrics"], **import_seconds()}
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    else:
        metrics = {**child["metrics"], "setup_s": statistics.median(setup)}
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    report = {
        "correct": not child["errors"],
        "attempted": child["attempted"],
        "failed": len(child["failed"]),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


if __name__ == "__main__":
    sys.exit(main())
