"""Each plane's ``__all__`` is its library API.

Every name a plane lists resolves, and every function and class it lists
has a docstring.  Every other public top-level function or class of the
plane is taken by another ``ts3ra`` module, so no entry point that only
tests call can sit in the package.

The three services' order and per-service tables live in ``domain`` only,
and every module but the package's ``__init__`` reads each name it imports
at top level.  Every dataclass field is read in the package, written to an
artifact, or allowlisted with the reader outside the package that keeps it;
and every field of the value objects a run builds for its planes is read by
package code on a run.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from ts3ra.auth import KeyDerivationParams, PufChallengeResponse, RegistrationRecord
from ts3ra.ddos import EntropyReport, WindowCounts
from ts3ra.domain import Flow, ServiceType, SliceRequest
from ts3ra.engine import Engine
from ts3ra.hopfield import AllocationRequest, ResourceAllocation
from ts3ra.scenario_io import parse_scenario
from ts3ra.slicenet import SliceFeatureVector

PACKAGE = Path(importlib.import_module("ts3ra").__file__).parent
ROOT = Path(__file__).resolve().parent.parent
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


# Dataclasses whose every field reaches an artifact through ``fields()``.
ARTIFACT_CLASSES = {
    "SliceMetrics": "a metrics.csv column per field",
    "Scenario": "a serialize_scenario key per field",
}

# "Class.field": (reader outside the package, why the field stays).
FIELD_READERS = {
    "SliceCounters.rejected": ("perfbench/child.py", "the hopfield.pool_rejected count"),
    "SlotResult.decision": ("tests/test_acceptance.py", "criterion 8"),
    "FlowAssignment.total_weight": ("tests/test_acceptance.py", "criterion 6"),
    "FlowAssignment.optimal": ("tests/test_offload.py", "ROADMAP item 1 writes it"),
    "FlowAssignment.unassigned": ("tests/test_offload.py", "ROADMAP item 1 writes it"),
    "RebalancePlan.resolved": ("tests/test_offload.py", "ROADMAP item 1 writes it"),
    "RebalancePlan.residual_load": ("tests/test_offload.py", "ROADMAP item 1 writes it"),
    "RecallResult.status": ("tests/test_hopfield.py", "ROADMAP item 1 writes it"),
    "RecallResult.iterations": ("tests/test_hopfield.py", "ROADMAP item 1 writes it"),
    "MetricsReport.quarantined_sources": ("tests/test_engine.py", "ROADMAP item 1 writes it"),
}


def dataclass_fields() -> dict[str, str]:
    """``"Class.field"`` -> defining module, for every dataclass in the package."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"ts3ra.{path.stem}")
        for name, cls in vars(mod).items():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__ and dataclasses.is_dataclass(cls):
                found.update({f"{name}.{f.name}": path.stem for f in dataclasses.fields(cls)})
    return found


def attributes_read(tree: ast.AST) -> set[str]:
    """Names read as attributes anywhere in ``tree``."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def package_readers() -> dict[str, tuple[set[str], set[str]]]:
    """Module -> (the package modules it defines or imports, the attribute
    names it reads)."""
    readers = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        seen = {path.stem}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                seen.update([node.module] if node.module else [a.name for a in node.names])
        readers[path.stem] = (seen, attributes_read(tree))
    return readers


def fields_called_on() -> set[str]:
    """Names passed to ``fields()`` in the package."""
    return {
        node.args[0].id
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "fields"
        and node.args
        and isinstance(node.args[0], ast.Name)
    }


def fields_without_a_package_reader() -> set[str]:
    """Fields that no module defining or importing their class reads by name,
    and whose class reaches no artifact."""
    readers = package_readers().values()
    return {
        qualified
        for qualified, module in dataclass_fields().items()
        if qualified.split(".")[0] not in ARTIFACT_CLASSES
        and not any(
            module in seen and qualified.split(".")[1] in read for seen, read in readers
        )
    }


def test_artifact_classes_are_walked_by_fields():
    classes = {qualified.split(".")[0] for qualified in dataclass_fields()}
    assert set(ARTIFACT_CLASSES) <= classes & fields_called_on()


def test_every_dataclass_field_has_a_reader():
    # A read counts in a module that defines or imports the class's module,
    # so an attribute of the same name on another plane's class does not.
    unread = fields_without_a_package_reader()
    assert sorted(unread - FIELD_READERS.keys()) == []
    # An allowlisted field that the package now reads leaves the allowlist.
    assert sorted(FIELD_READERS.keys() - unread) == []


@pytest.mark.parametrize("qualified", sorted(FIELD_READERS))
def test_allowlisted_field_is_read_by_its_reader(qualified):
    reader, _ = FIELD_READERS[qualified]
    tree = ast.parse((ROOT / reader).read_text())
    assert qualified.split(".")[1] in attributes_read(tree)


# The value objects a run builds for its planes, or a plane returns to it:
# registration and admission, the scheduler queue and the AP's classifier,
# slice selection, allocation, detection and rebalancing.
RUN_VALUE_OBJECTS = (
    KeyDerivationParams, PufChallengeResponse, RegistrationRecord, SliceRequest, Flow,
    SliceFeatureVector, AllocationRequest, ResourceAllocation, WindowCounts, EntropyReport,
)


def test_every_value_object_field_is_read_in_a_run(monkeypatch):
    # The ``ast`` guard above matches reads by name anywhere in a module, so
    # a same-named attribute of another class passes it.  Here each field of
    # the value objects a run builds for a plane must be read by package code
    # on a smoke run, outside the class's own checks.  The smoke seed (7)
    # migrates flows, so the offload plane reads its flows too.
    read, fields = set(), set()
    for cls in RUN_VALUE_OBJECTS:
        names = {f.name for f in dataclasses.fields(cls)}
        fields.update(f"{cls.__name__}.{name}" for name in names)

        def getattribute(self, name, cls=cls, names=names):
            if name in names:
                caller = sys._getframe(1).f_code
                if caller.co_name != "__post_init__" and Path(caller.co_filename).parent == PACKAGE:
                    read.add(f"{cls.__name__}.{name}")
            return object.__getattribute__(self, name)

        monkeypatch.setattr(cls, "__getattribute__", getattribute)
    scenario = parse_scenario((ROOT / "scenarios" / "smoke.cfg").read_text())
    engine = Engine(scenario)
    engine.run()
    assert engine.migrations > 0
    assert sorted(fields - read) == []
