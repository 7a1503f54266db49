"""Benchmark of the tasc CLI: synth, conform and synth-check on seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {cohort,wide,loops} --seed N --seconds S --trace {0,1}

With --trace 0 the CLI is driven as child processes for S seconds, in
cycles of `synth -n 0` (set-up), `synth`, `conform` and `synth-check
--traces`, and the end-to-end metrics are printed. With --trace 1 the traced
in-process run in traced.py does a fixed amount of work and gives the
per-layer metrics. Every run checks the outputs it gets; a command fails when
it exits with a code outside its documented set, prints a traceback or fails
a check. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a fuller record (context, raw samples,
unscaled metrics, failures and, for traced runs, the spans) goes to
.perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from proc import CMD_TIMEOUT_S, ChildResult, Spawner, cli_argv, cli_env, time_left  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    COHORT_GOLDEN_LINES,
    COHORT_GOLDEN_SEED,
    COHORT_GOLDEN_SHA,
    COHORT_MODEL_SHA,
    InputError,
    Workload,
)

MIN_CYCLES = 3

# The host's CPU speed changes by up to 1.6x for minutes at a time (shared
# 2-core machine), which no repetition inside one run can average out. So
# every timed command is preceded by a fixed pure-Python job, and times are
# reported at a reference speed: scaled by REFERENCE_CAL_S over the job's
# mean time in the run. Unscaled figures are kept in the run record.
CAL_ITERATIONS = 12_000
REFERENCE_CAL_S = 0.1

END_TO_END_UNITS = {
    "synth_tps": "traces/s",
    "conform_tps": "traces/s",
    "check_tps": "traces/s",
    "synth_rss_mb": "MB",
    "conform_rss_mb": "MB",
    "setup_s": "s",
    "ok_share": "ratio",
}


def context(wl: Workload, seed: int, args) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "synth_seed": wl.synth_seed,
        "n": wl.n,
        "workers": wl.workers,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "recursionlimit": sys.getrecursionlimit(),
    }


def calibrate() -> float:
    """Wall time of a fixed pure-Python job: a probe of the host's current speed."""
    start = time.perf_counter()
    size = 0
    for i in range(CAL_ITERATIONS):
        record = {"id": i, "name": f"n{i}", "values": (i, i * 2, i * 3)}
        size += len(json.dumps(record, sort_keys=True))
    return time.perf_counter() - start


def check_inputs(wl: Workload):
    """Parse, validate and compile the workload in-process before any timing."""
    from tasc import dsl, synthesis, validator

    try:
        cmset = dsl.parse_or_raise(wl.caremaps.read_text(encoding="utf-8"), str(wl.caremaps))
        diags = validator.validate(cmset)
        if validator.has_errors(diags):
            raise InputError("caremaps do not validate:\n" + "\n".join(d.render() for d in diags))
        model = synthesis.model_from_json(wl.model.read_text(encoding="utf-8"))
        return synthesis.compile_stm(cmset, wl.entry, model)
    except (dsl.ParseFailure, synthesis.CompileError) as e:
        raise InputError(f"{wl.name}: {e}") from e


class CliBench:
    """Drives the CLI for one workload and checks every output it gets."""

    def __init__(self, wl: Workload, stm, work: Path, spawner: Spawner, started: float):
        self.wl = wl
        self.spawner = spawner
        self.seed = wl.synth_seed
        self.stm = stm
        self.work = work
        self.started = started
        self.env = cli_env(ROOT)
        self.samples: dict[str, list[tuple[ChildResult, bool]]] = {}
        self.problems: list[str] = []
        self.wrong_outputs = 0
        self.synth_sha: str | None = None
        self.synth_out = work / "synth.jsonl"
        self.calibrations: list[float] = []

    def run(self, *args: str) -> ChildResult:
        return self.spawner.run(cli_argv(*args), self.env, time_left(self.started))

    def record(self, kind: str, result: ChildResult, problem: str | None = None,
               wrong_output: bool = False) -> None:
        """A run fails on an undocumented exit code, a traceback or a failed check."""
        if problem is None and result.traceback:
            problem = "traceback"
        if problem is not None:
            note = f"{self.wl.name} {kind} failed ({problem}): {result.describe()}"
            if note not in self.problems:
                self.problems.append(note)
        self.wrong_outputs += wrong_output
        self.samples.setdefault(kind, []).append((result, problem is None))

    # --- untimed checks --------------------------------------------------

    def golden_checks(self) -> list[str]:
        """Cohort only: the ROADMAP golden model and synth hashes."""
        wrong = []
        model_sha = hashlib.sha256(self.wl.model.read_bytes()).hexdigest()
        if model_sha != COHORT_MODEL_SHA:
            wrong.append(f"ingested model sha256 {model_sha} != {COHORT_MODEL_SHA}")
        out = self.work / "golden.jsonl"
        result = self.run(*self.wl.synth_args(COHORT_GOLDEN_LINES - 1, COHORT_GOLDEN_SEED, out))
        if result.returncode != 0 or result.traceback:
            wrong.append(f"golden synth failed: {result.describe()}")
        else:
            with out.open("rb") as f:
                head = b"".join(f.readline() for _ in range(COHORT_GOLDEN_LINES))
            sha = hashlib.sha256(head).hexdigest()
            if sha != COHORT_GOLDEN_SHA:
                wrong.append(f"first {COHORT_GOLDEN_LINES} synth lines at seed "
                             f"{COHORT_GOLDEN_SEED} hash {sha} != {COHORT_GOLDEN_SHA}")
        out.unlink(missing_ok=True)
        return wrong

    # --- timed commands --------------------------------------------------

    def cycle(self) -> None:
        for step in (self.setup_once, self.synth_once, self.conform_once, self.check_once):
            self.calibrations.append(calibrate())
            step()

    def setup_once(self) -> None:
        out = self.work / "setup.jsonl"
        result = self.run(*self.wl.synth_args(0, self.seed, out))
        if result.returncode != 0:
            self.record("setup", result, "exit code")
            return
        from tasc import synthesis

        expected = synthesis.provenance_header(self.stm, self.seed) + "\n"
        wrong = out.read_text(encoding="utf-8") != expected
        self.record("setup", result, "header" if wrong else None, wrong)

    def synth_once(self) -> None:
        self.synth_out.unlink(missing_ok=True)
        result = self.run(*self.wl.synth_args(self.wl.n, self.seed, self.synth_out))
        if result.returncode != 0:
            self.record("synth", result, "exit code")
            return
        problem = self._check_synth_output()
        self.record("synth", result, problem, problem is not None)

    def _check_synth_output(self) -> str | None:
        from tasc import conformance, synthesis

        data = self.synth_out.read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        if self.synth_sha is not None:
            return None if sha == self.synth_sha else "output differs from the first repetition"
        self.synth_sha = sha
        lines = data.decode("utf-8").split("\n")
        if len(lines) != self.wl.n + 2 or lines[-1] != "":
            return f"{len(lines) - 2} traces written, expected {self.wl.n}"
        if lines[0] != synthesis.provenance_header(self.stm, self.seed):
            return "provenance header"
        for i in sorted({0, self.wl.n // 2, self.wl.n - 1}):
            expected = conformance.trace_to_json(synthesis.generate_one(self.stm, self.seed, i))
            if lines[1 + i] != expected:
                return f"trace {i} differs from in-process generation"
        return None

    def conform_once(self) -> None:
        result = self.run(*self.wl.conform_args(self.synth_out))
        if result.returncode not in (0, 1) or result.traceback:
            self.record("conform", result, "exit code")
            return
        summary = _json_or_none(result.stdout)
        problem = None
        if summary is None:
            problem = "unreadable JSON"
        elif summary["n"] != self.wl.n or summary["conformant"] != self.wl.n:
            problem = f"conformant {summary['conformant']} of {summary['n']}, expected {self.wl.n}"
        elif summary["load_errors"]:
            problem = "load errors"
        self.record("conform", result, problem, problem is not None)

    def check_once(self) -> None:
        result = self.run(*self.wl.check_args(self.synth_out))
        if result.returncode not in (0, 1) or result.traceback:
            self.record("check", result, "exit code")
            return
        report = _json_or_none(result.stdout)
        problem = None
        if report is None:
            problem = "unreadable JSON"
        elif report["unmatched_traces"] != 0:
            problem = f"{report['unmatched_traces']} unmatched traces"
        elif result.returncode == 1 and not self.wl.check_may_exceed_tolerance:
            problem = f"max delta {report['max_delta']} over tolerance"
        self.record("check", result, problem, problem is not None)

    # --- metrics ---------------------------------------------------------

    def charged(self, kind: str, scale: float) -> list[float]:
        """Scaled wall times, where a failed command counts as though it had also
        run into the command timeout, so a run that crashes early never reads as fast."""
        return [r.wall_s * scale + (0.0 if ok else CMD_TIMEOUT_S) for r, ok in self.samples[kind]]

    def metrics(self, scale: float) -> dict[str, float]:
        n = self.wl.n

        def tps(kind):
            # Traces over the command's total wall time in the window: with
            # the machine's speed flipping between states for seconds at a
            # time, this is steadier than the median of per-run rates.
            charged = self.charged(kind, scale)
            return n * len(charged) / sum(charged)

        def rss(kind):
            return statistics.median(r.maxrss_mb for r, _ in self.samples[kind])

        runs = [ok for s in self.samples.values() for _, ok in s]
        return {
            "synth_tps": tps("synth"),
            "conform_tps": tps("conform"),
            "check_tps": tps("check"),
            "synth_rss_mb": rss("synth"),
            "conform_rss_mb": rss("conform"),
            "setup_s": statistics.median(self.charged("setup", scale)),
            "ok_share": sum(runs) / len(runs),
        }


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def run_end_to_end(wl: Workload, seconds: float, work: Path, spawner: Spawner, started: float):
    stm = check_inputs(wl)
    bench = CliBench(wl, stm, work, spawner, started)
    golden_wrong = bench.golden_checks() if wl.name == "cohort" else []
    bench.problems += golden_wrong
    bench.run(*wl.synth_args(0, bench.seed, work / "warmup.jsonl"))  # fills the bytecode cache

    # Cycles interleave the commands so each samples the whole window; a
    # cycle that would end past the window is not started.
    start = time.perf_counter()
    cycles = 0
    while True:
        bench.cycle()
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= MIN_CYCLES and elapsed + elapsed / cycles > seconds:
            break

    attempted = sum(len(s) for s in bench.samples.values())
    failed = sum(not ok for s in bench.samples.values() for _, ok in s)
    scale = REFERENCE_CAL_S / statistics.fmean(bench.calibrations)
    record = {
        "cycles": cycles,
        "scale": scale,
        "calibrations": bench.calibrations,
        "unscaled_metrics": bench.metrics(1.0),
        "samples": {
            kind: [{"wall_s": r.wall_s, "maxrss_mb": r.maxrss_mb, "returncode": r.returncode, "ok": ok}
                   for r, ok in s]
            for kind, s in bench.samples.items()
        },
        "problems": bench.problems,
    }
    correct = not golden_wrong and bench.wrong_outputs == 0
    return bench.metrics(scale), END_TO_END_UNITS, correct, attempted, failed, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(name: str, args, out_dir: Path) -> int:
    started = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    try:
        wl = WORKLOADS[name](ROOT, work, args.seed)
        ctx = context(wl, args.seed, args)
        with Spawner(work) as spawner:
            if args.trace:
                import traced

                metrics, units, correct, attempted, failed, record = traced.run_traced(
                    wl, work, spawner, out_dir / f"spans-{stem}.jsonl.gz", started)
            else:
                metrics, units, correct, attempted, failed, record = run_end_to_end(
                    wl, args.seconds, work, spawner, started)
    except InputError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (out_dir / f"{stem}.json").write_text(
        json.dumps({"context": ctx, "correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": metrics, **record}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("# context " + json.dumps(ctx, sort_keys=True))
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/tasc/cli.py", "corpus/labour_birth.tasc") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a tasc checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max([run_workload(name, args, out_dir) for name in names])


if __name__ == "__main__":
    sys.exit(main())
