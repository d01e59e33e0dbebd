"""Layered view of the tree of odd integers rooted at 1.

Layer 0 is the root.  Layer 1 holds the terminal integers 5, 21, 85, ...
which step straight to 1.  Each deeper layer holds, under every
non-starter node of the layer above, the ordered predecessor list
z, 4z+1, 4(4z+1)+1, ... truncated to the breadth budget.  Starters (odd
multiples of 3) are the leaves: nothing ever steps onto them, so they get
no segment of their own.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .core import DomainError, _require_count, terminal
from .tables import predecessor_row


class TreeSegment(NamedTuple):
    parent: int | None  # None only for the root layer
    children: tuple[int, ...]


class TreeLayer(NamedTuple):
    depth: int
    segments: tuple[TreeSegment, ...]

    def nodes(self) -> tuple[int, ...]:
        return tuple(v for seg in self.segments for v in seg.children)


class TreeNode(NamedTuple):
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
    exporters = {"dot": _export_dot, "json": _export_json, "text": _export_text}
    if format not in exporters:
        raise DomainError(f"unknown export format {format!r}; expected one of {tuple(exporters)}")
    return exporters[format](layers)


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
    # the bytes of json.dumps(payload, indent=2) for the payload
    # [{"depth": d, "segments": [{"parent": p, "children": [c, ...]}, ...]}, ...],
    # built layer by layer: the indenting encoder is pure Python and 3-5x slower
    def block(items: list[str], indent: str) -> str:
        # a JSON list whose items each take a line at `indent`
        if not items:
            return "[]"
        return "[\n" + indent + (",\n" + indent).join(items) + "\n" + indent[:-2] + "]"

    segment = '{\n        "parent": %s,\n        "children": %s\n      }'
    layer = '{\n    "depth": %s,\n    "segments": %s\n  }'
    texts = []
    for depth, segments in layers:
        rendered = [
            segment % ("null" if parent is None else parent, block(list(map(str, children)), " " * 10))
            for parent, children in segments
        ]
        texts.append(layer % (depth, block(rendered, " " * 6)))
    return (block(texts, "  ") + "\n").encode("utf-8")


def _export_text(layers: list[TreeLayer]) -> bytes:
    # parent -> children over every layer but the root's: a value has one
    # iterate, so it is a parent in one layer at most
    children = {seg.parent: seg.children for layer in layers[1:] for seg in layer.segments}
    lines: list[str] = []

    def walk(value: int, depth: int) -> None:
        lines.append("  " * depth + str(value))
        for child in children.get(value, ()):
            walk(child, depth + 1)

    walk(1, 0)
    return ("\n".join(lines) + "\n").encode("utf-8")
