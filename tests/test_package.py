import ast
import contextlib
import importlib
import io
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import ringline
import snapshot_cli
from ringline import (
    BadInput,
    NoAnswer,
    RinglineError,
    TooLarge,
    bundled_ring_path,
    compute_line,
    condense,
    construct,
    cyclic_submodule,
    jsontext,
)
from ringline.cli import build_line_report
from ringline.geometry import RelationGraph

SRC = Path(ringline.__file__).parent.parent
README = Path(__file__).parent.parent / "README.md"

# Standard-library modules the commands do not need; a library helper that
# uses one imports it in its own body.
UNNEEDED_AT_IMPORT = ("dataclasses", "inspect", "importlib.resources", "pathlib", "tempfile", "typing")


def test_exports_are_sorted_unique_and_resolve():
    names = ringline.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(ringline, name)] == []
    # every public name is exported, and the acceptance tests import only exports
    public = {name for name, value in vars(ringline).items() if not (name[0] == "_" or isinstance(value, ModuleType))}
    assert set(names) == public
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ringline"
        for alias in node.names
    }
    assert imported and imported <= set(names)


def test_errors_are_one_class_per_reaction():
    # bad input (exit 2), a bound hit, a stage with no answer
    assert set(RinglineError.__subclasses__()) == {BadInput, TooLarge, NoAnswer}
    assert [cls for cls in (BadInput, TooLarge, NoAnswer) if cls.__subclasses__()] == []


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
    # the tracer rebinds these names where they are looked up, and skips a
    # name missing from its module's __dict__
    hooks = {
        "cli": (
            "construct", "compute_line", "load_ring_file", "unimodular_partition", "cross_sector_check",
            "export_graph", "identify_condensate", "condensate_distant_analysis", "render_line_report",
            "line_report_json",
        ),
        "condense": ("construct", "compute_line", "condense", "reference_structure", "structures_isomorphic"),
        "constructors": ("validate_tables",),
        "geometry": ("RelationGraph", "maximum_cliques"),
    }
    for module, names in hooks.items():
        namespace = vars(importlib.import_module(f"ringline.{module}"))
        assert [name for name in names if name not in namespace] == [], module


def test_every_module_parses_as_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; a newer interpreter
    # runs the tests, so the grammar is checked against 3.10 here
    modules = sorted(Path(ringline.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_importing_the_package_and_cli_loads_no_unneeded_stdlib_module():
    # -S: a .pth file in site-packages may import pathlib at startup
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ringline, ringline.cli; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "ringline.cli" in loaded
    assert [name for name in UNNEEDED_AT_IMPORT if name in loaded] == []
    assert bundled_ring_path().is_file()


# Per record: a fresh build, one of its cached properties, and a field.
RECORDS = {
    "ring": (lambda: construct("T(2)"), "columns", "order"),
    "point": (lambda: cyclic_submodule(construct("T(2)"), (1, 0)), "orbit", "generator"),
    "line": (lambda: compute_line(construct("T(2)")), "derived", "ring"),
    "structure": (lambda: condense(compute_line(construct("T(2)"))), "meets", "edges"),
}


@pytest.mark.parametrize("kind", sorted(RECORDS))
def test_records_compare_by_value_and_keep_cached_values_out_of_it(kind):
    build, cached, field = RECORDS[kind]
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    getattr(a, cached)
    assert cached in vars(a) and cached not in vars(b)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))


def test_record_reprs_and_json_refusal():
    ring = construct("T(2)")
    assert repr(ring) == "FiniteRing('T(2)', order=8)"
    assert repr(cyclic_submodule(ring, (1, 0))) == "<point R(1, 0) unimodular |orbit|=8>"
    assert repr(compute_line(ring)) == "ProjectiveLine('T(2)', 18 unimodular, 3 non-unimodular)"
    with pytest.raises(TypeError):
        jsontext.dumps(ring)


def test_readme_library_example_prints_what_its_comments_say():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block, {})
    assert expected and printed.getvalue().splitlines() == expected


def test_readme_counts_the_snapshot_commands():
    # the count is read, not run: each command would start its own process
    counts = re.findall(r"runs (\d+) CLI commands", " ".join(README.read_text(encoding="utf-8").split()))
    assert counts == [str(len(snapshot_cli.commands()))]
