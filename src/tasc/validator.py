"""Structural, decision-point, content-model, and lifecycle rules for caremap sets.

Error codes (block downstream use):
  S1 single entry point        S2 at least one exit point
  S3 all nodes reachable       S4 every node reaches a terminal
  S5 decision branch shape     S6 criteria only on decision out-edges
  S7 entry/exit degree rules   S8 nested refs resolve, nesting acyclic
  S9 links join exit to entry

Warning codes (advisory; promoted to errors in strict mode):
  W-FREE free-choice fan-out   W-EXH decision lacks otherwise
  W-CNT content-order anomaly  W-LFC lifecycle metadata incomplete
"""
from __future__ import annotations

from dataclasses import dataclass, field

from tasc.criteria import Otherwise
from tasc.model import (
    Caremap,
    CaremapSet,
    ContentType,
    DECISION_KINDS,
    NodeKind,
    TERMINAL_KINDS,
    reachable,
    resolve_refs,
    successors,
)

ERROR_CODES = ("S1", "S2", "S3", "S4", "S5", "S6", "S7", "S8", "S9")


@dataclass(frozen=True)
class Diagnostic:
    code: str
    severity: str  # "error" | "warning"
    caremap: str
    subjects: tuple[str, ...]  # node/edge ids, at least one
    message: str

    def render(self) -> str:
        where = ", ".join(self.subjects)
        return f"{self.caremap}: {self.severity}[{self.code}] {self.message} ({where})"

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "caremap": self.caremap,
            "subjects": list(self.subjects),
            "message": self.message,
        }


@dataclass
class ValidatorConfig:
    strict: bool = False  # promote warnings to errors


def _sort_key(d: Diagnostic):
    return (d.caremap, d.code, d.subjects)


def validate(cmset: CaremapSet, config: ValidatorConfig | None = None) -> list[Diagnostic]:
    """Run all structural rules plus content and lifecycle lints over a set."""
    config = config or ValidatorConfig()
    out: list[Diagnostic] = []
    for cm in cmset.caremaps:
        out.extend(_structural(cm))
        out.extend(content_lint(cm))
        out.extend(lifecycle_lint(cm))
    out.extend(_set_rules(cmset))
    if config.strict:
        out = [
            Diagnostic(d.code, "error", d.caremap, d.subjects, d.message)
            if d.severity == "warning"
            else d
            for d in out
        ]
    out.sort(key=_sort_key)
    return out


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def _structural(cm: Caremap) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    entries = [n for n in cm.nodes if n.kind is NodeKind.ENTRY_POINT]
    exits = [n for n in cm.nodes if n.kind is NodeKind.EXIT_POINT]

    if len(entries) == 0:
        out.append(Diagnostic("S1", "error", cm.id, (cm.id,), "caremap has no entry point"))
    elif len(entries) > 1:
        ids = tuple(sorted(n.id for n in entries))
        out.append(Diagnostic("S1", "error", cm.id, ids, "caremap has multiple entry points"))
    if not exits:
        out.append(Diagnostic("S2", "error", cm.id, (cm.id,), "caremap has no exit point"))

    # S3/S4 reachability (needs an entry to anchor from)
    if entries:
        forward = reachable(
            (n.id for n in entries), lambda cur: (n.id for _, n in successors(cm, cur))
        )
        unreachable = sorted(n.id for n in cm.nodes if n.id not in forward)
        if unreachable:
            out.append(
                Diagnostic(
                    "S3", "error", cm.id, tuple(unreachable),
                    "nodes unreachable from the entry point",
                )
            )
        # reverse reachability from terminals
        reaches_terminal = reachable(
            (n.id for n in cm.nodes if n.kind in TERMINAL_KINDS),
            lambda cur: (e.from_id for e in cm.in_edges(cur)),
        )
        dead = sorted(nid for nid in forward if nid not in reaches_terminal)
        if dead:
            out.append(
                Diagnostic(
                    "S4", "error", cm.id, tuple(dead),
                    "nodes cannot reach an exit or exclusion point",
                )
            )

    for n in cm.nodes:
        succ = successors(cm, n.id)
        if n.kind in DECISION_KINDS:
            if len(succ) < 2:
                out.append(
                    Diagnostic(
                        "S5", "error", cm.id, (n.id,),
                        f"decision has {len(succ)} out-edge(s); at least two pathways required",
                    )
                )
            bare = sorted(e.id for e, _ in succ if e.criterion is None)
            if bare:
                out.append(
                    Diagnostic(
                        "S5", "error", cm.id, (n.id, *bare),
                        "decision out-edges must all carry criteria",
                    )
                )
            otherwise_edges = sorted(
                e.id for e, _ in succ if isinstance(e.criterion, Otherwise)
            )
            if len(otherwise_edges) > 1:
                out.append(
                    Diagnostic(
                        "S5", "error", cm.id, (n.id, *otherwise_edges),
                        "decision has more than one otherwise branch",
                    )
                )
            elif not otherwise_edges and len(succ) >= 2 and not bare:
                out.append(
                    Diagnostic(
                        "W-EXH", "warning", cm.id, (n.id,),
                        "decision has no otherwise branch; criteria may not be exhaustive",
                    )
                )
        else:
            labeled = sorted(e.id for e, _ in succ if e.criterion is not None)
            if labeled:
                out.append(
                    Diagnostic(
                        "S6", "error", cm.id, (n.id, *labeled),
                        "criteria are only allowed on decision out-edges",
                    )
                )
            elif len(succ) >= 2:
                out.append(
                    Diagnostic(
                        "W-FREE", "warning", cm.id, (n.id,),
                        "free-choice fan-out without a decision point",
                    )
                )
        if n.kind is NodeKind.ENTRY_POINT and cm.in_edges(n.id):
            out.append(
                Diagnostic("S7", "error", cm.id, (n.id,), "entry point must have no in-edges")
            )
        if n.kind in TERMINAL_KINDS and succ:
            out.append(
                Diagnostic(
                    "S7", "error", cm.id, (n.id,),
                    f"{n.kind.value} point must have no out-edges",
                )
            )
    return out


def _set_rules(cmset: CaremapSet) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for err in resolve_refs(cmset):
        code = "S9" if "Link" in err.code else "S8"
        out.append(Diagnostic(code, "error", err.caremap, (err.subject,), err.message))
    for link in cmset.links:
        if not cmset.has_caremap(link.from_caremap) or not cmset.has_caremap(link.to_caremap):
            continue  # already an S9 via resolve_refs
        src = cmset.caremap(link.from_caremap)
        dst = cmset.caremap(link.to_caremap)
        if src.has_node(link.from_exit_node) and src.node(link.from_exit_node).kind is not NodeKind.EXIT_POINT:
            out.append(
                Diagnostic(
                    "S9", "error", link.from_caremap, (link.from_exit_node,),
                    "multi-level link must start at an exit point",
                )
            )
        if dst.has_node(link.to_entry_node) and dst.node(link.to_entry_node).kind is not NodeKind.ENTRY_POINT:
            out.append(
                Diagnostic(
                    "S9", "error", link.to_caremap, (link.to_entry_node,),
                    "multi-level link must end at an entry point",
                )
            )
    return out


def content_lint(cm: Caremap) -> list[Diagnostic]:
    """Flag diagnosis-typed activities only reachable through treatment/monitoring.

    The canonical content ordering is diagnosis, then treatment, then
    monitoring; loops between treatment and monitoring are expected and
    exempt because the rule only inspects how diagnosis nodes are first
    reached.
    """
    out: list[Diagnostic] = []
    entries = cm.entry_nodes()
    if len(entries) != 1:
        return out
    later_typed = {ContentType.TREATMENT, ContentType.MONITORING}

    def onward(cur: str):
        if cm.node(cur).content_type in later_typed:
            return ()  # do not traverse beyond a later-phase activity
        return (n.id for _, n in successors(cm, cur))

    # nodes reachable without passing through a treatment/monitoring activity
    clean = reachable([entries[0].id], onward)
    flagged = sorted(
        n.id
        for n in cm.nodes
        if n.content_type is ContentType.DIAGNOSIS and n.id not in clean
    )
    if flagged:
        out.append(
            Diagnostic(
                "W-CNT", "warning", cm.id, tuple(flagged),
                "diagnosis activity reachable only after treatment/monitoring activities",
            )
        )
    return out


def lifecycle_lint(cm: Caremap) -> list[Diagnostic]:
    """Warn when development-lifecycle metadata is incomplete."""
    missing = []
    if cm.version is None:
        missing.append("version")
    if cm.date is None:
        missing.append("date")
    if not cm.evidence_refs:
        missing.append("evidence_refs")
    if not missing:
        return []
    return [
        Diagnostic(
            "W-LFC", "warning", cm.id, (cm.id,),
            "lifecycle metadata missing: " + ", ".join(missing),
        )
    ]
