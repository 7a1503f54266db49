"""Traced run: per-layer metrics from spans around in-process calls.

The run calls the public functions of each tasc module in-process on the
workload's inputs, and records a span (name, start, end, parent span, trace
id) around each call. Per-trace calls (generate_one, trace_to_json, replay)
carry the index of the patient trace as their trace id, so the spans of one
trace share it. Inside one sample of traces, the calls that generation and
replay make into criteria.bind, criteria.select_branch and model.successors
are wrapped as well, which gives in-situ call counts and self time per
layer. The spans stay in memory and are written once, when the run ends.

Timings reported as p50/p99 come from a pass with the wrappers off; the
difference between that pass and the wrapped pass over the same traces is
reported as the tracing overhead. End-to-end metrics never use this run.
"""
from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tasc import conformance, criteria, dsl, synthesis, validator

from proc import Spawner, cli_argv, cli_env, time_left
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent

# The p99 of per-trace timings needs at least ten samples beyond it.
LAYER_MIN_TRACES = 1000
# Traces generated and replayed with the layer wrappers installed.
TRACED_SAMPLE = 200
STAGE_REPS = 3

PER_LAYER_UNITS = {
    "dsl.parse_s": "s",
    "dsl.parse_nodes_per_s": "nodes/s",
    "dsl.serialize_s": "s",
    "dsl.self_s": "s",
    "validator.validate_s": "s",
    "validator.diagnostics": "count",
    "validator.self_s": "s",
    "synthesis.model_from_json_s": "s",
    "synthesis.compile_stm_s": "s",
    "synthesis.generate_us_p50": "us",
    "synthesis.generate_us_p99": "us",
    "synthesis.events_per_trace": "count",
    "synthesis.obs_per_trace": "count",
    "synthesis.frequency_report_s": "s",
    "synthesis.frequency_report_failed": "count",
    "synthesis.unmatched": "count",
    "synthesis.self_s": "s",
    "criteria.bind_us": "us",
    "criteria.bind_calls": "calls/trace",
    "criteria.select_branch_us": "us",
    "criteria.self_s": "s",
    "model.successors_us": "us",
    "model.successors_calls": "calls/trace",
    "model.self_s": "s",
    "conformance.trace_to_json_us": "us",
    "conformance.bytes_per_trace": "bytes",
    "conformance.load_traces_us": "us",
    "conformance.load_traces_peak_mb": "MB",
    "conformance.check_labels_s": "s",
    "conformance.replay_us_p50": "us",
    "conformance.replay_us_p99": "us",
    "conformance.replay_failed": "count",
    "conformance.replay_conformant": "count",
    "conformance.self_s": "s",
    "cli.import_s": "s",
    "cli.synth_unattributed_s": "s",
    "cli.conform_unattributed_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

IMPORT_PROBE = "import time; t = time.perf_counter(); import tasc.cli; print(time.perf_counter() - t)"


class Tracer:
    """In-memory span recorder; spans are tuples until the run writes them."""

    def __init__(self):
        self.spans: list = []  # (span id, parent id, trace id, name, start ns, end ns)
        self.open: list[int] = []
        self.trace_id: object = "setup"

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.open[-1] if self.open else -1
        self.open.append(sid)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self.open.pop()
            self.spans[sid] = (sid, parent, self.trace_id, name, start, end)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of the finished spans called name."""
        return [(s[5] - s[4]) / 1e9 for s in self.spans if s is not None and s[3] == name]


@contextmanager
def layer_wrappers(tracer: Tracer):
    """Wrap the calls generation and replay make into criteria and model."""
    targets = [
        (criteria, "bind", "criteria.bind"),
        (criteria, "select_branch", "criteria.select_branch"),
        (synthesis, "successors", "model.successors"),
        (conformance, "successors", "model.successors"),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, name in targets:
            setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _pct(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def _replay_pass(cmset, entry: str, traces) -> tuple[list[float], list]:
    """Replay each trace from this fixed, shallow harness depth.

    The depth of the stack at the call sets where replay's recursion hits
    the interpreter limit, so it must not vary between runs. A trace that
    raises RecursionError is counted and the pass goes on.
    """
    times, statuses = [], []
    for trace in traces:
        start = perf_counter()
        try:
            statuses.append(conformance.replay(cmset, entry, trace).status)
        except RecursionError:
            statuses.append(None)
        times.append(perf_counter() - start)
    return times, statuses


def _traced_sample(tracer: Tracer, stm, seed: int, count: int) -> tuple[float, int]:
    """Generate, serialize and replay `count` traces with every layer wrapped."""
    cmset, entry = stm.cmset, stm.entry_caremap
    raised = 0
    start = perf_counter()
    with layer_wrappers(tracer):
        for i in range(count):
            tracer.trace_id = i
            trace = tracer.call("synthesis.generate_one", synthesis.generate_one, stm, seed, i)
            tracer.call("conformance.trace_to_json", conformance.trace_to_json, trace)
            depth = len(tracer.open)
            try:
                tracer.call("conformance.replay", conformance.replay, cmset, entry, trace)
            except RecursionError:
                raised += 1
                del tracer.open[depth:]
    tracer.trace_id = "setup"
    return perf_counter() - start, raised


def _self_time_by_layer(spans) -> dict[str, float]:
    done = [s for s in spans if s is not None]
    covered: dict[int, int] = defaultdict(int)
    for sid, parent, _, _, start, end in done:
        if parent >= 0:
            covered[parent] += end - start
    layers: dict[str, float] = defaultdict(float)
    for sid, _, _, name, start, end in done:
        layers[name.split(".")[0]] += (end - start - covered[sid]) / 1e9
    return layers


class LayerRun:
    """One traced run over one workload; fills `m` with the per-layer metrics."""

    def __init__(self, wl: Workload, work: Path, spawner: Spawner, started: float):
        self.wl = wl
        self.work = work
        self.spawner = spawner
        self.started = started
        self.seed = wl.synth_seed
        self.n = max(wl.n, LAYER_MIN_TRACES)
        self.env = cli_env(ROOT)
        self.tracer = Tracer()
        self.m: dict[str, float] = {}
        self.wrong: list[str] = []  # outputs that fail a check
        self.children: list = []

    def child(self, argv: list[str]):
        result = self.spawner.run(argv, self.env, time_left(self.started))
        self.children.append(result)
        return result

    def stage(self, name: str, fn, *args):
        """Time a whole-input stage STAGE_REPS times; return its last result and median time."""
        for _ in range(STAGE_REPS):
            result = self.tracer.call(name, fn, *args)
        return result, statistics.median(self.tracer.durations(name))

    def stages(self) -> None:
        m, wl = self.m, self.wl
        imports = [self.child([sys.executable, "-c", IMPORT_PROBE]) for _ in range(STAGE_REPS)]
        m["cli.import_s"] = statistics.median(
            float(r.stdout) if r.returncode == 0 else r.wall_s for r in imports)
        text = wl.caremaps.read_text(encoding="utf-8")
        self.cmset, m["dsl.parse_s"] = self.stage("dsl.parse", dsl.parse_or_raise, text, str(wl.caremaps))
        m["dsl.parse_nodes_per_s"] = sum(len(c.nodes) for c in self.cmset.caremaps) / m["dsl.parse_s"]
        _, m["dsl.serialize_s"] = self.stage("dsl.serialize", dsl.serialize, self.cmset)
        diags, m["validator.validate_s"] = self.stage("validator.validate", validator.validate, self.cmset)
        m["validator.diagnostics"] = len(diags)
        model, m["synthesis.model_from_json_s"] = self.stage(
            "synthesis.model_from_json", synthesis.model_from_json, wl.model.read_text(encoding="utf-8"))
        self.stm, m["synthesis.compile_stm_s"] = self.stage(
            "synthesis.compile_stm", synthesis.compile_stm, self.cmset, wl.entry, model)

    def generate(self) -> None:
        """Per-trace generation and serialization with the wrappers off.

        Like the CLI, only the JSON lines are kept, so the live heap (and
        the garbage collector's work) matches what the CLI sees.
        """
        m, n = self.m, self.n
        self.lines, self.gen_times, self.json_times = [], [], []
        events = observations = 0
        for i in range(n):
            start = perf_counter()
            trace = synthesis.generate_one(self.stm, self.seed, i)
            middle = perf_counter()
            self.lines.append(conformance.trace_to_json(trace))
            self.json_times.append(perf_counter() - middle)
            self.gen_times.append(middle - start)
            events += len(trace.events)
            observations += sum(isinstance(e, conformance.Observation) for e in trace.events)
        m["synthesis.generate_us_p50"] = _pct(self.gen_times, 50) * 1e6
        m["synthesis.generate_us_p99"] = _pct(self.gen_times, 99) * 1e6
        m["synthesis.events_per_trace"] = events / n
        m["synthesis.obs_per_trace"] = observations / n
        m["conformance.trace_to_json_us"] = statistics.fmean(self.json_times) * 1e6
        m["conformance.bytes_per_trace"] = statistics.fmean(len(line) + 1 for line in self.lines)
        self.jsonl = "\n".join([synthesis.provenance_header(self.stm, self.seed)] + self.lines) + "\n"

    def load_and_replay(self) -> None:
        m, tracer = self.m, self.tracer
        loaded, errors = tracer.call("conformance.load_traces", conformance.load_traces, self.jsonl)
        m["conformance.load_traces_us"] = tracer.durations("conformance.load_traces")[0] / self.n * 1e6
        if errors or [conformance.trace_to_json(t) for t in loaded] != self.lines:
            self.wrong.append("load_traces does not give back the generated traces")
        tracemalloc.start()
        try:
            conformance.load_traces(self.jsonl)
            m["conformance.load_traces_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        tracer.call("conformance.check_labels", conformance.check_labels, self.cmset, loaded)
        m["conformance.check_labels_s"] = tracer.durations("conformance.check_labels")[0]

        self.replay_times, statuses = _replay_pass(self.cmset, self.wl.entry, loaded)
        m["conformance.replay_us_p50"] = _pct(self.replay_times, 50) * 1e6
        m["conformance.replay_us_p99"] = _pct(self.replay_times, 99) * 1e6
        m["conformance.replay_failed"] = statuses.count(None)
        m["conformance.replay_conformant"] = statuses.count("Conformant")
        other = len(statuses) - statuses.count(None) - statuses.count("Conformant")
        if other:
            self.wrong.append(f"{other} generated traces replay as not conformant")

        m["synthesis.frequency_report_failed"] = 0
        try:
            report = tracer.call("synthesis.frequency_report", synthesis.frequency_report, loaded, self.stm)
            m["synthesis.unmatched"] = report.unmatched_traces
            if report.unmatched_traces:
                self.wrong.append(f"frequency_report left {report.unmatched_traces} traces unmatched")
        except RecursionError:
            # No report, so no trace was matched; the time is the time to the raise.
            m["synthesis.unmatched"] = self.n
            m["synthesis.frequency_report_failed"] = 1
        m["synthesis.frequency_report_s"] = tracer.durations("synthesis.frequency_report")[0]

    def layer_spans(self) -> None:
        m, tracer = self.m, self.tracer
        self.sample = min(TRACED_SAMPLE, self.n)
        traced_s, self.sample_raised = _traced_sample(tracer, self.stm, self.seed, self.sample)
        k = self.sample
        untraced_s = sum(self.gen_times[:k]) + sum(self.json_times[:k]) + sum(self.replay_times[:k])
        m["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
        for name in ("criteria.bind", "criteria.select_branch", "model.successors"):
            durations = tracer.durations(name)
            m[f"{name}_us"] = statistics.fmean(durations) * 1e6 if durations else 0.0
        m["criteria.bind_calls"] = len(tracer.durations("criteria.bind")) / k
        m["model.successors_calls"] = len(tracer.durations("model.successors")) / k
        self_time = _self_time_by_layer(tracer.spans)
        for layer in ("dsl", "validator", "synthesis", "criteria", "model", "conformance"):
            m[f"{layer}.self_s"] = self_time.get(layer, 0.0)
        m["trace.spans"] = sum(s is not None for s in tracer.spans)

    def cli_unattributed(self) -> None:
        """CLI wall time minus the in-process stage times for the same input."""
        m, wl = self.m, self.wl
        out = self.work / "layer_synth.jsonl"
        cli_synth = self.child(cli_argv(*wl.synth_args(self.n, self.seed, out)))
        if cli_synth.returncode == 0 and out.read_text(encoding="utf-8") != self.jsonl:
            self.wrong.append("CLI synth output differs from in-process generation")
        cli_conform = self.child(cli_argv(*wl.conform_args(out)))
        m["cli.synth_unattributed_s"] = cli_synth.wall_s - (
            m["dsl.parse_s"] + m["synthesis.model_from_json_s"] + m["synthesis.compile_stm_s"]
            + sum(self.gen_times) + sum(self.json_times))
        m["cli.conform_unattributed_s"] = cli_conform.wall_s - (
            m["dsl.parse_s"] + m["conformance.load_traces_us"] * self.n / 1e6
            + m["conformance.check_labels_s"] + sum(self.replay_times))

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(json.dumps(["span", "parent", "trace", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.tracer.spans:
                if span is not None:
                    f.write(json.dumps(span) + "\n")


def run_traced(wl: Workload, work: Path, spawner: Spawner, spans_file: Path, started: float):
    run = LayerRun(wl, work, spawner, started)
    run.stages()
    run.generate()
    run.load_and_replay()
    run.layer_spans()
    run.cli_unattributed()
    run.write_spans(spans_file)

    failed_children = [r for r in run.children if r.returncode != 0 or r.traceback]
    problems = run.wrong + [f"{wl.name} {r.describe()}" for r in failed_children]
    replay_failed = run.m["conformance.replay_failed"]
    if replay_failed:
        problems.append(f"{wl.name}: {replay_failed} of {run.n} replays raised RecursionError")
    metrics = {name: run.m[name] for name in PER_LAYER_UNITS}
    attempted = len(run.children) + run.n + run.sample
    failed = len(failed_children) + replay_failed + run.sample_raised
    record = {"problems": problems, "spans_file": str(spans_file.relative_to(ROOT)),
              "traced_sample": run.sample, "traces": run.n}
    return metrics, PER_LAYER_UNITS, not run.wrong, attempted, failed, record
