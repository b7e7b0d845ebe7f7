"""Every numeric scenario key rejects an out-of-range value with a
``ScenarioError`` that names the key."""

import math

import pytest

from ts3ra.scenario import SCENARIO_KEYS, Scenario, ScenarioError

# Cost weights may be negative; only a non-finite one is out of range.
SIGNED = {"offload_alpha", "offload_beta", "offload_gamma"}


def bad_values():
    defaults = Scenario()
    for section in SCENARIO_KEYS.values():
        for attr in section.values():
            default = getattr(defaults, attr)
            if isinstance(default, (bool, str)):
                continue
            if isinstance(default, int):
                yield attr, -1
                continue
            yield attr, math.nan
            yield attr, math.inf
            if attr not in SIGNED:
                yield attr, -1.0


@pytest.mark.parametrize(("attr", "value"), list(bad_values()))
def test_out_of_range_value_names_the_key(attr, value):
    with pytest.raises(ScenarioError, match=attr):
        Scenario(**{attr: value}).validate()


def test_negative_cost_weights_pass():
    Scenario(offload_alpha=-1.0, offload_beta=-1.0, offload_gamma=-1.0).validate()
