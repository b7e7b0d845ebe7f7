"""Scenario text format: ``[section]`` headers and ``key = value`` lines.

Comments start with ``#``.  Unknown sections or keys are rejected with the
offending line number; missing keys fall back to defaults.  Serialization
emits every key in registry order so parse/serialize round-trips exactly.
"""

from __future__ import annotations

from .scenario import SCENARIO_KEYS, Scenario, ScenarioError, _coerce


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in SCENARIO_KEYS:
                raise ScenarioError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ScenarioError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        attr = SCENARIO_KEYS[section].get(key)
        if attr is None:
            raise ScenarioError(f"line {lineno}: unknown key '{key}' in [{section}]")
        setattr(scenario, attr, _coerce(attr, value, f"line {lineno}: key '{key}'"))
    scenario.validate()
    return scenario


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_scenario(scenario: Scenario) -> str:
    lines: list[str] = []
    for section, keys in SCENARIO_KEYS.items():
        lines.append(f"[{section}]")
        for key, attr in keys.items():
            lines.append(f"{key} = {_format_value(getattr(scenario, attr))}")
        lines.append("")
    return "\n".join(lines)


def apply_override(scenario: Scenario, dotted_key: str, raw_value: str) -> None:
    """Set one value by ``section.key`` (or bare ``seed``) from its string form."""
    if dotted_key == "seed":
        section, key = "network", "seed"
    elif "." in dotted_key:
        section, key = dotted_key.split(".", 1)
    else:
        matches = [
            (sec, key)
            for sec, keys in SCENARIO_KEYS.items()
            for key in keys
            if key == dotted_key
        ]
        if len(matches) != 1:
            raise ScenarioError(
                f"ambiguous or unknown key '{dotted_key}'; use section.key"
            )
        section, key = matches[0]
    if section not in SCENARIO_KEYS or key not in SCENARIO_KEYS[section]:
        raise ScenarioError(f"unknown scenario key '{dotted_key}'")
    attr = SCENARIO_KEYS[section][key]
    setattr(scenario, attr, _coerce(attr, raw_value, f"key '{dotted_key}'"))
