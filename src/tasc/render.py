"""Deterministic DOT output for caremap sets.

Layout is delegated to the DOT consumer; this module only fixes the glyph
vocabulary (UML-activity-diagram heritage) and emission order.
"""
from __future__ import annotations

from dataclasses import dataclass

from tasc.criteria import Otherwise, criterion_text, quote
from tasc.model import CaremapSet, Node, NodeKind

_BASE_GLYPHS: dict[NodeKind, dict[str, str]] = {
    NodeKind.ENTRY_POINT: {"shape": "circle", "style": "filled", "label": "", "width": "0.25"},
    NodeKind.EXIT_POINT: {"shape": "doublecircle", "label": "", "width": "0.2"},
    NodeKind.EXCLUSION_POINT: {"shape": "octagon", "label": "X"},
    NodeKind.ACTIVITY: {"shape": "box", "style": "rounded"},
    NodeKind.NESTED_ACTIVITY: {"shape": "tab", "style": "rounded"},
    NodeKind.DECISION: {"shape": "diamond"},
    NodeKind.NESTED_DECISION: {"shape": "Mdiamond"},
}

_CONTENT_COLORS = {"diagnosis": "lightblue", "treatment": "lightgoldenrod", "monitoring": "lightgreen"}


@dataclass(frozen=True)
class StyleProfile:
    monochrome: bool = True

    def attrs_for(self, node: Node) -> dict[str, str]:
        attrs = dict(_BASE_GLYPHS[node.kind])
        if "label" not in attrs:
            attrs["label"] = node.label or node.id
        if not self.monochrome and node.content_type is not None:
            attrs["fillcolor"] = _CONTENT_COLORS[node.content_type.value]
            style = attrs.get("style")
            attrs["style"] = f"{style},filled" if style else "filled"
        return attrs


MONO = StyleProfile(monochrome=True)
COLOR = StyleProfile(monochrome=False)

PROFILES = {"mono": MONO, "color": COLOR}


def _attr_text(attrs: dict[str, str]) -> str:
    return "[" + ", ".join(f"{k}={quote(v)}" for k, v in sorted(attrs.items())) + "]"


def to_dot(cmset: CaremapSet, style: StyleProfile = MONO) -> str:
    """Render the set as one DOT digraph, a cluster per caremap; byte-stable."""
    lines = ["digraph caremaps {", "  rankdir=TB;", '  node [fontname="Helvetica"];']
    for cm in cmset.caremaps:
        lines.append(f"  subgraph cluster_{cm.id} {{")
        lines.append(f"    label={quote(cm.title or cm.id)};")
        for n in sorted(cm.nodes, key=lambda n: n.id):
            attrs = style.attrs_for(n)
            if n.nested_ref:
                attrs["tooltip"] = f"nested caremap: {n.nested_ref}"
            lines.append(f"    {quote(cm.id + '.' + n.id)} {_attr_text(attrs)};")
        for e in cm.edges:
            attrs: dict[str, str] = {}
            if isinstance(e.criterion, Otherwise):
                attrs["label"] = "[otherwise]"
            elif e.criterion is not None:
                attrs["label"] = f"[{criterion_text(e.criterion)}]"
            if e.annotation:
                attrs["tooltip"] = e.annotation
            tail = f" {_attr_text(attrs)}" if attrs else ""
            lines.append(
                f"    {quote(cm.id + '.' + e.from_id)} -> {quote(cm.id + '.' + e.to_id)}{tail};"
            )
        lines.append("  }")
    for link in cmset.links:
        lines.append(
            f"  {quote(link.from_caremap + '.' + link.from_exit_node)} -> "
            f"{quote(link.to_caremap + '.' + link.to_entry_node)} [style=\"dashed\"];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def check_dot(text: str) -> list[str]:
    """Minimal DOT well-formedness check: balanced braces/brackets, quote
    closure, and statement shape. Returns a list of problems (empty = ok)."""
    problems = []
    depth = 0
    in_quote = False
    escaped = False
    bracket = 0
    for i, ch in enumerate(text):
        if in_quote:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_quote = False
            continue
        if ch == '"':
            in_quote = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                problems.append(f"unbalanced '}}' at offset {i}")
        elif ch == "[":
            bracket += 1
        elif ch == "]":
            bracket -= 1
            if bracket < 0:
                problems.append(f"unbalanced ']' at offset {i}")
    if in_quote:
        problems.append("unterminated quoted id")
    if depth != 0:
        problems.append("unbalanced braces")
    if bracket != 0:
        problems.append("unbalanced attribute brackets")
    if not text.lstrip().startswith("digraph"):
        problems.append("missing digraph header")
    return problems
