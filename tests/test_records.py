"""The result records' contract: named tuples with fixed fields, immutable, with keyword reprs."""

import io
import json

import pytest

import collatzkit
from collatzkit.cli import run

# each record's fields, in the order they have always had
FIELDS = {
    "Classification": ("kind", "is_terminal", "is_end"),
    "TableCoordinate": ("table", "column", "row"),
    "PredecessorRow": ("iterate", "entries"),
    "TrajectoryRecord": ("start", "iterates", "alphas", "odd_length", "total_divisions", "peak"),
    "FieldStats": ("minimum", "maximum", "mean"),
    "TrajectoryStats": ("count", "odd_length", "total_divisions", "peak"),
    "TreeSegment": ("parent", "children"),
    "TreeLayer": ("depth", "segments"),
    "TreeNode": ("value", "parent", "depth", "is_leaf"),
    "AlphaChain": ("start", "length", "chain", "exit_iterate"),
    "AlphaBucket": ("alpha", "count", "ratio"),
    "AlphaDensityReport": ("bound", "odd_total", "buckets"),
    "DriftReport": (
        "n_terms",
        "scan_bound",
        "series_increase",
        "series_decrease",
        "empirical_value",
    ),
    "TheoremScanReport": ("bound", "trajectories", "iterates_checked"),
}


def sample(name):
    # an instance whose i-th field holds i
    cls = getattr(collatzkit, name)
    return cls(*range(len(cls._fields)))


@pytest.mark.parametrize("name", FIELDS)
def test_fields_keep_their_order(name):
    assert getattr(collatzkit, name)._fields == FIELDS[name]


@pytest.mark.parametrize("name", FIELDS)
def test_records_are_immutable(name):
    record = sample(name)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, -1)
    with pytest.raises(AttributeError):
        record.extra = -1
    assert tuple(record) == tuple(range(len(FIELDS[name])))


@pytest.mark.parametrize("name", FIELDS)
def test_repr_names_every_field(name):
    fields = ", ".join(f"{field}={i}" for i, field in enumerate(FIELDS[name]))
    assert repr(sample(name)) == f"{name}({fields})"


def test_repr_of_a_real_result():
    assert repr(collatzkit.classify(7)) == (
        "Classification(kind=<Kind.INTERMEDIARY_6M1: 'intermediary-6m+1'>, is_terminal=False, is_end=False)"
    )


def test_methods_and_properties_survive():
    layer = collatzkit.build_layers(2, 2)[2]
    assert layer.nodes() == tuple(v for seg in layer.segments for v in seg.children)
    assert collatzkit.trajectory_direct(9)._asdict()["peak"] == 17


@pytest.mark.parametrize("method", ["direct", "lookup"])
def test_stats_json_keys_follow_the_fields(method):
    out = io.StringIO()
    assert run(["trajectory", "3", "--end", "15", "--stats", "--method", method, "--format", "json"], out) == 0
    payload = json.loads(out.getvalue())
    assert tuple(payload) == collatzkit.TrajectoryStats._fields
    for name in collatzkit.TrajectoryStats._fields[1:]:
        assert tuple(payload[name]) == collatzkit.FieldStats._fields
