"""Each plane's ``__all__`` is its library API.

Every name a plane lists resolves, and every function and class it lists
has a docstring.  Every other public top-level function or class of the
plane is taken by another ``ts3ra`` module, so no entry point that only
tests call can sit in the package.

The three services' order and per-service tables live in ``domain`` only,
and every module but the package's ``__init__`` reads each name it imports
at top level.
"""

import ast
import importlib
from pathlib import Path

import pytest

from ts3ra.domain import ServiceType

PACKAGE = Path(importlib.import_module("ts3ra").__file__).parent
PLANES = [
    "auth", "dataplane", "ddos", "domain", "hopfield", "offload", "sched", "serialization",
    "slicenet",
]


def top_level_defs(module: str) -> dict[str, ast.AST]:
    """The functions and classes defined at the top of ``module``'s source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def names_taken_from(module: str) -> set[str]:
    """Names the package's other modules import from ``module`` or read as
    attributes of it."""
    taken = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == module:
            continue
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == module:
                    taken.update(alias.name for alias in node.names)
                elif node.module is None:
                    aliases.update(
                        alias.asname or alias.name for alias in node.names if alias.name == module
                    )
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                taken.add(node.attr)
    return taken


@pytest.mark.parametrize("module", PLANES)
def test_listed_names_resolve(module):
    mod = importlib.import_module(f"ts3ra.{module}")
    listed = mod.__all__
    assert listed and len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(mod, name)] == []


@pytest.mark.parametrize("module", PLANES)
def test_listed_functions_and_classes_have_docstrings(module):
    defs = top_level_defs(module)
    listed = importlib.import_module(f"ts3ra.{module}").__all__
    undocumented = [name for name in listed if name in defs and not ast.get_docstring(defs[name])]
    assert undocumented == []


@pytest.mark.parametrize("module", PLANES)
def test_unlisted_public_names_serve_the_package(module):
    listed = importlib.import_module(f"ts3ra.{module}").__all__
    unlisted = {name for name in top_level_defs(module) if not name.startswith("_")} - set(listed)
    assert sorted(unlisted - names_taken_from(module)) == []


def unread_imports(module: str) -> list[str]:
    """Names that ``module`` imports at top level and never reads."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
)
def test_every_top_level_import_is_read(module):
    # The package's ``__init__`` imports names only to re-export them.
    assert unread_imports(module) == []


def service_displays(module: str) -> list[int]:
    """Lines of the tuple, list, set and dict displays in ``module``'s source
    that name every ``ServiceType`` member."""
    lines = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            items = node.elts
        elif isinstance(node, ast.Dict):
            items = [*node.keys, *node.values]
        else:
            continue
        named = {
            item.attr
            for item in items
            if isinstance(item, ast.Attribute)
            and isinstance(item.value, ast.Name)
            and item.value.id == "ServiceType"
        }
        if named == set(ServiceType.__members__):
            lines.append(node.lineno)
    return lines


def test_domain_holds_the_service_tables():
    assert service_displays("domain")


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "domain")
)
def test_only_domain_lists_every_service(module):
    assert service_displays(module) == []
