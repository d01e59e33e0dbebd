"""Odd-iterate Collatz toolkit.

Exact arithmetic and classification for the odd-to-odd step
x -> (3x+1)/2**alpha, closed-form predecessor tables covering every odd
integer, trajectory construction by direct iteration and by table lookup,
layered tree generation rooted at 1, alpha-run classification, and
average-drift statistics, all cross-checked against brute-force walks.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name and the submodule it lives in, in __all__ order; a name's
# module is imported when the name is first read (PEP 562), so `import
# collatzkit` loads no submodule and a command loads only what it uses
_HOMES = {
    "DECREASE_SERIES_LIMIT": "analysis",
    "DEFAULT_MAX_STEPS": "core",
    "INCREASE_SERIES_LIMIT": "analysis",
    "AlphaBucket": "analysis",
    "AlphaChain": "analysis",
    "AlphaDensityReport": "analysis",
    "Classification": "core",
    "DomainError": "core",
    "DriftReport": "analysis",
    "FieldStats": "trajectory",
    "Kind": "core",
    "MaxStepsExceeded": "core",
    "PredecessorRow": "tables",
    "SyracuseResult": "core",
    "TableCoordinate": "tables",
    "TableId": "tables",
    "TheoremScanReport": "analysis",
    "TrajectoryRecord": "trajectory",
    "TrajectoryStats": "trajectory",
    "TreeLayer": "tree",
    "TreeNode": "tree",
    "TreeSegment": "tree",
    "alpha_chain": "analysis",
    "alpha_chain_length": "analysis",
    "alpha_of": "core",
    "alpha_residue_class": "core",
    "alpha_table_entry": "analysis",
    "build_layers": "tree",
    "classify": "core",
    "column_alpha": "tables",
    "column_header": "tables",
    "drift_report": "analysis",
    "drift_series_decrease": "analysis",
    "drift_series_decrease_parts": "analysis",
    "drift_series_increase": "analysis",
    "empirical_alpha_density": "analysis",
    "empirical_drift": "analysis",
    "empirical_iterate_class_ratio": "analysis",
    "export_tree": "tree",
    "is_terminal": "core",
    "iter_nodes": "tree",
    "locate": "tables",
    "pre_terminal": "core",
    "predecessor_row": "tables",
    "record_json": "trajectory",
    "reverse_to_starter": "core",
    "row_iterate": "tables",
    "stats_csv": "trajectory",
    "syracuse_step": "core",
    "table_entry": "tables",
    "table_window_csv": "tables",
    "terminal": "core",
    "trajectory_direct": "trajectory",
    "trajectory_lookup": "trajectory",
    "trajectory_stats": "trajectory",
    "verify_theorems": "analysis",
    "write_record": "trajectory",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES.values():  # a submodule: importing it sets it on the package
        return import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return list({*globals(), *__all__})
