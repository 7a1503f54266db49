"""Seeded inputs for the three benchmark workloads.

Each build_* function writes a caremap file and a transition model into a
work directory and returns a `Workload` describing how the CLI should be
driven. The seed sets the synth seed (except on loops) and the generated
probabilities and distribution parameters; the graph shapes are fixed, so
the work per trace stays comparable across seeds.
"""
from __future__ import annotations

import json
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

from proc import cli_argv, cli_env

# Golden values on the seed code base (see ROADMAP "Open items").
COHORT_MODEL_SHA = "71688e29ce7e03ac339d9e968aae243d4323a99e2883f1a5d1bdc9e35e58848d"
COHORT_GOLDEN_SEED = 7
COHORT_GOLDEN_LINES = 10_001
COHORT_GOLDEN_SHA = "aa6abe5a68374f8da01df0f5bf6fe0c1cb888a65de8f40f0a20b13b65fecd87d"

WARDS = 6
ROUTES = 64
CHAIN_DEPTH = 8
LOOP_P = 0.99


class InputError(RuntimeError):
    """The workload could not be built or its inputs failed their checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    caremaps: Path
    model: Path
    entry: str
    n: int  # traces per synth run
    synth_seed: int  # --seed given to synth
    workers: int  # --workers for synth and conform
    # synth-check exit 1 is a legitimate tolerance finding where the sample
    # is too small for the default tolerance on every annotated edge.
    check_may_exceed_tolerance: bool

    def _workers(self) -> list[str]:
        return ["--workers", str(self.workers)] if self.workers > 1 else []

    def synth_args(self, n: int, seed: int, out: Path) -> list[str]:
        return ["synth", str(self.caremaps), "--model", str(self.model), "--entry", self.entry,
                "-n", str(n), "--seed", str(seed), "--out", str(out), *self._workers()]

    def conform_args(self, traces: Path) -> list[str]:
        return ["conform", str(self.caremaps), "--traces", str(traces), "--entry", self.entry,
                "--format", "json", *self._workers()]

    def check_args(self, traces: Path) -> list[str]:
        return ["synth-check", str(self.caremaps), "--model", str(self.model),
                "--entry", self.entry, "--traces", str(traces), "--format", "json"]


# --- cohort -----------------------------------------------------------------
# Chosen because it is the corpus map the ROADMAP golden values pin, and it is
# the only workload that runs the process-pool path (--workers 2). The map is
# tiny and both decisions emit explicit branch events, so criteria are never
# evaluated: per-trace fixed costs dominate (RNG seeding, JSON encode/decode,
# dataclass construction, the in-memory join, pool pickling).


def build_cohort(root: Path, work: Path, seed: int) -> Workload:
    model = work / "cohort_model.json"
    done = subprocess.run(
        cli_argv(
            "ingest", str(root / "corpus" / "labour_birth_counts.csv"),
            "--caremaps", str(root / "corpus" / "labour_birth.tasc"),
            "--out", str(model),
        ),
        env=cli_env(root), capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise InputError(f"tasc ingest failed with exit {done.returncode}: {done.stderr[-500:]}")
    return Workload(
        "cohort", root / "corpus" / "labour_birth.tasc", model, "labour_birth",
        n=10_000, synth_seed=seed, workers=2, check_may_exceed_tolerance=False,
    )


# --- wide -------------------------------------------------------------------
# Chosen to load the graph-index code that cohort barely touches: six linked
# ward maps, each with a 64-branch routing decision, 64 two-way follow-up
# decisions, a nested activity into a chain 8 maps deep, and a sampler
# decision with an exclusion exit. The work is the linear model scans
# (TransitionModel.mode_for / emitters_for), list building in
# model.successors, link scans, the nested call stack, replay over wide
# successor lists, and parsing a ~2.5k-line file.


def _normal(rng: random.Random, lo: float, hi: float) -> dict:
    return {"kind": "normal", "mu": round(rng.uniform(lo, hi), 3), "sigma": round(rng.uniform(0.2, 1.0), 3)}


def _ward_text(w: int) -> list[str]:
    cm = f"ward{w}"
    lines = [
        f'caremap "{cm}" {{',
        f'  title "Ward {w}";',
        "  date 2020-01-01;",
        "  version 1;",
        '  evidence "generated benchmark map";',
        "  entry arrive;",
        "  exit leave;",
        '  exclusion excluded "Excluded from pathway";',
        f'  activity admit "Admit to ward {w}" [diagnosis];',
        f'  nested activity workup "Deep workup {w}" ref chain1;',
        f'  decision route "Route patient {w}" [aspect: therapy];',
    ]
    for i in range(ROUTES):
        lines.append(f'  activity r{i:02d} "Ward {w} route {i}" [treatment];')
    for i in range(ROUTES):
        lines.append(f'  decision f{i:02d} "Ward {w} follow-up {i}" [aspect: therapy];')
    lines += [
        f'  activity review "Ward {w} review" [monitoring];',
        f'  activity prepare "Ward {w} discharge planning" [monitoring];',
        f'  decision eligible "Ward {w} still eligible?" [aspect: prognosis];',
        "  arrive -> admit;",
        "  admit -> workup;",
        "  workup -> route;",
    ]
    for i in range(ROUTES - 1):
        lines.append(f"  route -> r{i:02d} when route_code == {i};")
    lines.append(f"  route -> r{ROUTES - 1:02d} otherwise;")
    for i in range(ROUTES):
        lines.append(f"  r{i:02d} -> f{i:02d};")
        lines.append(f"  f{i:02d} -> review when followup == yes;")
        lines.append(f"  f{i:02d} -> prepare otherwise;")
    lines += [
        "  review -> eligible;",
        "  prepare -> eligible;",
        "  eligible -> excluded when severity > 2.5;",
        "  eligible -> leave otherwise;",
        "}",
        "",
    ]
    return lines


def _chain_text(level: int) -> list[str]:
    lines = [
        f'caremap "chain{level}" {{',
        f'  title "Workup level {level}";',
        "  date 2020-01-01;",
        "  version 1;",
        '  evidence "generated benchmark map";',
        "  entry start;",
        "  exit done;",
    ]
    if level < CHAIN_DEPTH:
        lines += [
            f'  nested activity step "Workup step {level}" ref chain{level + 1};',
            "  start -> step;",
            "  step -> done;",
        ]
    else:
        lines += [
            '  activity assay "Laboratory assay" [diagnosis];',
            "  start -> assay;",
            "  assay -> done;",
        ]
    return lines + ["}", ""]


def build_wide(root: Path, work: Path, seed: int) -> Workload:
    rng = random.Random(f"wide:{seed}")
    lines = ["# Generated benchmark map set: six linked wards, 64-way routing.", ""]
    for w in range(WARDS):
        lines += _ward_text(w)
    for level in range(1, CHAIN_DEPTH + 1):
        lines += _chain_text(level)
    for w in range(WARDS - 1):
        lines.append(f"link ward{w}.leave -> ward{w + 1}.arrive;")
    caremaps = work / "wide.tasc"
    caremaps.write_text("\n".join(lines) + "\n", encoding="utf-8")

    nodes: dict = {}
    emitters: dict = {}
    for w in range(WARDS):
        cm = f"ward{w}"
        weights = [rng.gammavariate(2.0, 1.0) for _ in range(ROUTES)]
        total = sum(weights)
        probs = [round(x / total, 6) for x in weights]
        probs[-1] = round(1.0 - sum(probs[:-1]), 6)
        nodes[f"{cm}.route"] = {
            "mode": "edge_probs",
            "probs": {f"route->r{i:02d}": p for i, p in enumerate(probs)},
        }
        for i in range(ROUTES):
            p = round(rng.uniform(0.2, 0.8), 4)
            nodes[f"{cm}.f{i:02d}"] = {
                "mode": "edge_probs",
                "probs": {f"f{i:02d}->review": p, f"f{i:02d}->prepare": round(1.0 - p, 4)},
            }
            emitters[f"{cm}.r{i:02d}"] = [{"dist": _normal(rng, 3.0, 12.0), "var": f"lab{i:02d}"}]
        nodes[f"{cm}.eligible"] = {
            "mode": "sampler", "var": "severity",
            "dist": {"kind": "normal", "mu": 0.0, "sigma": 1.0},
        }
        emitters[f"{cm}.admit"] = [{"dist": _normal(rng, 60.0, 90.0), "var": "heart_rate", "unit": "bpm"}]
        emitters[f"{cm}.review"] = [{"dist": _normal(rng, 4.0, 9.0), "var": "glucose", "unit": "mmol/L"}]
        emitters[f"{cm}.prepare"] = [{"dist": _normal(rng, 4.0, 9.0), "var": "glucose", "unit": "mmol/L"}]
    emitters["chain8.assay"] = [{"dist": _normal(rng, 30.0, 50.0), "var": "hba1c", "unit": "mmol/mol"}]
    model = work / "wide_model.json"
    model.write_text(
        json.dumps({"tasc_model": 1, "seed": seed, "nodes": nodes, "emitters": emitters},
                   sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return Workload(
        "wide", caremaps, model, "ward0", n=250, synth_seed=seed, workers=1,
        check_may_exceed_tolerance=True,
    )


# --- loops ------------------------------------------------------------------
# Chosen as the ROADMAP stress map for long loops: an activity with a glucose
# emitter feeds a decision that loops back with p=0.99, resolved by a
# categorical sampler so replay evaluates its criteria. Traces average ~300
# events and observation histories grow every iteration, so the load is
# criteria.bind history copying (quadratic per trace), replay recursion and
# the per-event bindings snapshots. On the seed code about a fifth of these
# traces overflow the interpreter's recursion limit in replay; the benchmark
# keeps p=0.99 and the default limit so that failure stays visible.
#
# Loop lengths are geometric with mean 100, so the total work of 500 traces
# differs by about 8% between synth seeds, as much as the machine noise. The
# synth seed is therefore fixed: every benchmark seed replays the same loop
# lengths, and the benchmark seed moves the glucose emitter's parameters.
LOOPS_SYNTH_SEED = 0


def build_loops(root: Path, work: Path, seed: int) -> Workload:
    rng = random.Random(f"loops:{seed}")
    text = "\n".join([
        "# Generated benchmark map: glucose monitoring loop that repeats with p=0.99.",
        'caremap "glucose_loop" {',
        '  title "Glucose monitoring loop";',
        "  date 2020-01-01;",
        "  version 1;",
        '  evidence "generated benchmark map";',
        "  entry start;",
        "  exit done;",
        '  activity measure "Measure blood glucose" [monitoring];',
        '  decision again "Repeat measurement?" [aspect: therapy];',
        "  start -> measure;",
        "  measure -> again;",
        "  again -> measure when repeat == yes;",
        "  again -> done otherwise;",
        "}",
        "",
    ])
    caremaps = work / "loops.tasc"
    caremaps.write_text(text, encoding="utf-8")
    doc = {
        "tasc_model": 1,
        "seed": seed,
        "nodes": {
            "glucose_loop.again": {
                "mode": "sampler", "var": "repeat",
                "dist": {"kind": "categorical", "values": ["yes", "no"],
                         "probs": [LOOP_P, round(1.0 - LOOP_P, 10)]},
            },
        },
        "emitters": {
            "glucose_loop.measure": [
                {"dist": _normal(rng, 5.0, 8.0), "var": "glucose", "unit": "mmol/L"},
            ],
        },
    }
    model = work / "loops_model.json"
    model.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return Workload(
        "loops", caremaps, model, "glucose_loop", n=500, synth_seed=LOOPS_SYNTH_SEED, workers=1,
        check_may_exceed_tolerance=False,
    )


WORKLOADS = {"cohort": build_cohort, "wide": build_wide, "loops": build_loops}
