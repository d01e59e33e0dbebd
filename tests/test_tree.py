import json

import pytest

from collatzkit import (
    DomainError,
    build_layers,
    export_tree,
    iter_nodes,
    predecessor_row,
    syracuse_step,
    terminal,
    trajectory_direct,
)


@pytest.mark.parametrize(
    "y,count,expected",
    [
        (13, 3, [17, 69, 277]),
        (53, 3, [35, 141, 565]),
        (5, 4, [3, 13, 53, 213]),
    ],
)
def test_predecessors_of_examples(y, count, expected):
    assert list(predecessor_row(y, count).entries) == expected


def test_predecessors_of_rejections():
    # the root's predecessors are the terminal chain
    assert predecessor_row(1, 3).entries == tuple(terminal(k) for k in range(3))
    with pytest.raises(DomainError):
        predecessor_row(9, 3)
    with pytest.raises(DomainError):
        predecessor_row(8, 3)
    with pytest.raises(DomainError):
        predecessor_row(13, 0)


def test_build_layers_spot_values():
    layers = build_layers(2, 4)
    assert layers[0].segments[0].children == (1,)
    assert layers[1].segments[0].children == (5, 21, 85, 341)
    by_parent = {seg.parent: seg.children for seg in layers[2].segments}
    assert by_parent == {
        5: (3, 13, 53, 213),
        85: (113, 453, 1813, 7253),
        341: (227, 909, 3637, 14549),
    }
    assert build_layers(1, 1)[1].segments[0].children == (5,)


def test_layer_one_is_the_terminal_chain():
    layers = build_layers(1, 8)
    assert layers[1].segments[0].children == tuple(terminal(k) for k in range(1, 9))


def test_tree_soundness_and_linkage():
    layers = build_layers(4, 5)
    for node in iter_nodes(layers):
        if node.parent is not None:
            assert syracuse_step(node.value).iterate == node.parent
        assert node.is_leaf == (node.value % 3 == 0)
    for layer in layers[1:]:
        for seg in layer.segments:
            for a, b in zip(seg.children, seg.children[1:]):
                assert b == 4 * a + 1


def test_tree_uniqueness():
    values = [n.value for n in iter_nodes(build_layers(5, 4))]
    assert len(values) == len(set(values))


def test_starters_are_exactly_the_childless_nodes():
    layers = build_layers(4, 4)
    expanded = {seg.parent for layer in layers for seg in layer.segments} - {None}
    for layer in layers[:-1]:  # the last layer is unexpanded by construction
        for node_value in layer.nodes():
            if node_value % 3 == 0:
                assert node_value not in expanded
            else:
                assert node_value in expanded


def test_parameter_validation():
    with pytest.raises(DomainError):
        build_layers(0, 4)
    with pytest.raises(DomainError):
        build_layers(3, 0)


def _completeness_case(limit, depth):
    # forward walks pick the integers that must appear, and dictate the
    # breadth needed: the column of each step plus the terminal's position
    candidates = []
    needed = 1
    for x in range(1, limit + 1, 2):
        rec = trajectory_direct(x)
        if rec.odd_length > depth:
            continue
        candidates.append(x)
        for i, alpha in enumerate(rec.alphas):
            if i == len(rec.alphas) - 1:
                needed = max(needed, alpha // 2 - 1)
            else:
                needed = max(needed, (alpha + 1) // 2)
    return candidates, needed


def test_completeness_small():
    candidates, breadth = _completeness_case(1000, 6)
    present = {n.value for n in iter_nodes(build_layers(6, breadth))}
    missing = [x for x in candidates if x not in present]
    assert missing == []


def test_export_dot():
    data = export_tree(build_layers(2, 2), "dot").decode()
    assert data.startswith("digraph collatz_tree {")
    assert "  5 -> 1;" in data
    assert "  3 [shape=box];" in data
    assert "  21 [shape=box];" in data


def test_export_json():
    layers = build_layers(2, 2)
    payload = json.loads(export_tree(layers, "json").decode())
    assert payload[0] == {"depth": 0, "segments": [{"parent": None, "children": [1]}]}
    assert payload[1]["segments"] == [{"parent": 1, "children": [5, 21]}]
    node_13 = [seg for seg in payload[2]["segments"] if 13 in seg["children"]]
    assert node_13 and node_13[0]["parent"] == 5


@pytest.mark.parametrize("depth", range(1, 8))
@pytest.mark.parametrize("breadth", range(1, 5))
def test_export_json_is_the_indenting_encoders_bytes(depth, breadth):
    # export_tree writes this text itself; layers whose parents are all
    # starters have no segments, so an empty list appears too
    layers = build_layers(depth, breadth)
    payload = [
        {"depth": layer.depth, "segments": [{"parent": s.parent, "children": list(s.children)} for s in layer.segments]}
        for layer in layers
    ]
    assert export_tree(layers, "json") == (json.dumps(payload, indent=2) + "\n").encode()


def test_export_text():
    lines = export_tree(build_layers(1, 3), "text").decode().splitlines()
    assert lines == ["1", "  5", "  21", "  85"]


@pytest.mark.parametrize("depth", range(1, 8))
@pytest.mark.parametrize("breadth", range(1, 5))
def test_export_text_is_the_depth_first_outline_of_the_parent_links(depth, breadth):
    # the outline rebuilt from iter_nodes alone: depth-first from 1, each
    # node's children in the order they appear, two spaces per depth
    layers = build_layers(depth, breadth)
    children = {}
    for node in iter_nodes(layers):
        children.setdefault(node.parent, []).append(node)
    lines = []
    stack = list(reversed(children[None]))
    while stack:
        node = stack.pop()
        lines.append("  " * node.depth + str(node.value))
        stack.extend(reversed(children.get(node.value, [])))
    assert export_tree(layers, "text") == ("\n".join(lines) + "\n").encode()


def test_export_rejections_and_determinism():
    layers = build_layers(3, 3)
    with pytest.raises(DomainError, match=r"^unknown export format 'svg'; expected one of \('dot', 'json', 'text'\)$"):
        export_tree(layers, "svg")
    with pytest.raises(DomainError):
        export_tree([], "dot")
    for fmt in ("dot", "json", "text"):
        assert export_tree(layers, fmt) == export_tree(layers, fmt)
