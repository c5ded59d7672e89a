import ast
from pathlib import Path

import ringline
from ringline.cli import build_line_report
from ringline.geometry import RelationGraph


def test_exports_are_sorted_unique_and_resolve():
    names = ringline.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(ringline, name)] == []


def test_names_the_benchmark_reads_resolve():
    # the benchmark's tracer reads geometry.RelationGraph on install, and its
    # expected-value check reads these LineReport attributes
    assert isinstance(RelationGraph, type)
    report = build_line_report(ringline.construct("T(2)"))
    read = (
        "unimodular", "nonunimodular", "max_distant", "max_neighbour", "partition_class_sizes",
        "partition_anchor_sets", "cross_sector_all_neighbour", "condensate_matches",
        "condensate_classes", "condensate_edges",
    )
    assert [name for name in read if not hasattr(report, name)] == []


def test_every_module_parses_as_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; a newer interpreter
    # runs the tests, so the grammar is checked against 3.10 here
    modules = sorted(Path(ringline.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
