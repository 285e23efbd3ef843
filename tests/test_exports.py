import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import bdstirling

MODULES = sorted(
    f"bdstirling.{info.name}" for info in pkgutil.iter_modules(bdstirling.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


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
