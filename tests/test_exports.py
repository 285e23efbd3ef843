import ast
import importlib
import inspect
import pkgutil
import re
import types
from collections import Counter
from pathlib import Path

import pytest

import bdstirling

MODULES = sorted(
    f"bdstirling.{info.name}" for info in pkgutil.iter_modules(bdstirling.__path__)
    if info.name != "__main__"
)
# The package's own imports, read from its __init__.py, and the modules it
# star-imports.
IMPORTS = [
    node for node in ast.parse(Path(bdstirling.__file__).read_text(encoding="utf-8")).body
    if isinstance(node, (ast.Import, ast.ImportFrom))
]
STARRED = sorted(
    f"bdstirling.{node.module}" for node in IMPORTS if [a.name for a in node.names] == ["*"]
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_top_level_names_are_pinned():
    public = sorted(
        n for n, v in vars(bdstirling).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert public == [
        "BPartition", "CensusResult", "ColoredPermutation", "DEFAULT_CAPS",
        "DPartition", "EnumerationCaps", "GPartition", "IDENTITIES", "IdentityCheck",
        "OrderedPartition", "SignedPermutation", "VerificationReport", "ZERO",
        "b_procedure", "b_procedure_inverse", "census", "classical_set_partitions",
        "classify_point", "colored_from_signed", "d_procedure", "d_procedure_inverse",
        "d_unreachable", "d_unreachable_count", "des_stat", "descent_histogram",
        "descent_set", "enumerate_group", "enumerate_partitions", "eulerian",
        "eulerian_from_stirling", "falling_factorial", "fdes", "flag_histogram",
        "flag_stirling_row", "free_gaps", "free_point_count", "group_order",
        "missing_point_count", "stirling", "stirling_row", "torus_census",
        "verify_identity",
    ]


def test_package_imports_only_whole_export_lists():
    """__init__.py takes every name from a module's __all__, and keeps no
    list of its own."""
    assert len(STARRED) == len(IMPORTS) > 0
    assert not hasattr(bdstirling, "__all__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_and_class_is_defined_where_it_is_listed(name):
    module = importlib.import_module(name)
    elsewhere = [
        (n, obj.__module__) for n in getattr(module, "__all__", ())
        if (inspect.isroutine(obj := getattr(module, n)) or inspect.isclass(obj))
        and obj.__module__ != name
    ]
    assert elsewhere == []


def test_no_name_is_exported_by_two_starred_modules():
    # a later star import would shadow the earlier name without a word
    counts = Counter(n for name in STARRED for n in importlib.import_module(name).__all__)
    assert [n for n, c in counts.items() if c > 1] == []


def test_no_module_imports_a_network_client():
    """The package reads b-files from files only; nothing in it can open a
    connection."""
    network = {"urllib", "http", "socket"}
    found = []
    for path in sorted(Path(bdstirling.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in network]
    assert found == []


def test_readme_quick_tour_gives_its_commented_results():
    """Run the README's library tour; each expression line there evaluates
    to the value its comment opens with."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library quick tour")[1].split("```python\n")[1].split("```")[0]
    scope = {}
    exec(tour, scope)
    shown = []
    for line in tour.splitlines():
        code, _, comment = line.partition("  #")
        if comment and not re.match(r"\w+ = ", code):
            shown.append(comment.split(" of ")[0].strip())
            assert eval(code, scope) == eval(shown[-1], scope), line
    assert shown == ["frozenset({0, 3, 4})", "(beta, frozenset({1, 2}))",
                     "(1, 24, 34, 12, 1)", "58", "True", "36"]
    assert scope["op"].r == 5  # "ordered mirror partition, rank 5"
