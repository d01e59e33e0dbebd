"""Layered view of the tree of odd integers rooted at 1.

Layer 0 is the root.  Layer 1 holds the terminal integers 5, 21, 85, ...
which step straight to 1.  Each deeper layer holds, under every
non-starter node of the layer above, the ordered predecessor list
z, 4z+1, 4(4z+1)+1, ... truncated to the breadth budget.  Starters (odd
multiples of 3) are the leaves: nothing ever steps onto them, so they get
no segment of their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .core import DomainError, _require_count, terminal
from .tables import predecessor_row

_FORMATS = ("dot", "json", "text")


@dataclass(frozen=True)
class TreeSegment:
    parent: int | None  # None only for the root layer
    children: tuple[int, ...]


@dataclass(frozen=True)
class TreeLayer:
    depth: int
    segments: tuple[TreeSegment, ...]

    def nodes(self) -> tuple[int, ...]:
        return tuple(v for seg in self.segments for v in seg.children)


@dataclass(frozen=True)
class TreeNode:
    value: int
    parent: int | None
    depth: int
    is_leaf: bool  # true iff value is a starter


def build_layers(max_depth: int, breadth: int) -> list[TreeLayer]:
    """Layers 0..max_depth with at most `breadth` children per parent.

    Layer 1 is the first `breadth` terminal integers; below that, every
    non-starter node is expanded breadth-first, segments ordered by parent
    value so output is independent of expansion scheduling.
    """
    _require_count(max_depth, 1, "max_depth")
    _require_count(breadth, 1, "breadth")
    layers = [TreeLayer(depth=0, segments=(TreeSegment(parent=None, children=(1,)),))]
    first = tuple(terminal(k) for k in range(1, breadth + 1))
    layers.append(TreeLayer(depth=1, segments=(TreeSegment(parent=1, children=first),)))
    for depth in range(2, max_depth + 1):
        parents = sorted(v for v in layers[-1].nodes() if v % 3 != 0)
        segments = tuple(
            TreeSegment(parent=p, children=predecessor_row(p, breadth).entries) for p in parents
        )
        layers.append(TreeLayer(depth=depth, segments=segments))
    return layers


def iter_nodes(layers: list[TreeLayer]) -> Iterator[TreeNode]:
    """All nodes in layer order, segments ordered as stored."""
    for layer in layers:
        for seg in layer.segments:
            for value in seg.children:
                yield TreeNode(
                    value=value, parent=seg.parent, depth=layer.depth, is_leaf=value % 3 == 0
                )


def export_tree(layers: list[TreeLayer], format: str) -> bytes:
    """Render layers as DOT, JSON, or an indented text outline."""
    if not layers:
        raise DomainError("no layers to export")
    if format == "dot":
        return _export_dot(layers)
    if format == "json":
        return _export_json(layers)
    if format == "text":
        return _export_text(layers)
    raise DomainError(f"unknown export format {format!r}; expected one of {_FORMATS}")


def _export_dot(layers: list[TreeLayer]) -> bytes:
    lines = ["digraph collatz_tree {", "  rankdir=BT;"]
    for node in iter_nodes(layers):
        lines.append(f"  {node.value} [shape=box];" if node.is_leaf else f"  {node.value};")
    for node in iter_nodes(layers):
        if node.parent is not None:
            lines.append(f"  {node.value} -> {node.parent};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _export_json(layers: list[TreeLayer]) -> bytes:
    payload = [
        {
            "depth": layer.depth,
            "segments": [
                {"parent": seg.parent, "children": list(seg.children)} for seg in layer.segments
            ],
        }
        for layer in layers
    ]
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def _export_text(layers: list[TreeLayer]) -> bytes:
    children: list[dict[int, tuple[int, ...]]] = []
    for layer in layers:
        children.append({seg.parent: seg.children for seg in layer.segments if seg.parent is not None})
    lines: list[str] = []

    def walk(value: int, depth: int) -> None:
        lines.append("  " * depth + str(value))
        if depth + 1 < len(layers):
            for child in children[depth + 1].get(value, ()):
                walk(child, depth + 1)

    walk(1, 0)
    return ("\n".join(lines) + "\n").encode("utf-8")
