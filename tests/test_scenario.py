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


# Each of these used to exhaust memory (or exit 2) while building the world or
# building or training the model, or, for epochs, to train for months on data
# that never converges, or, for the area, to overflow the squared distances so
# that no device moved; validation rejects them before anything is built.
@pytest.mark.parametrize(
    ("attr", "value"),
    [
        ("d_model", 257),
        ("d_model", 5000),
        ("d_model", 100000),
        ("train_samples", 1000001),
        ("train_samples", 1000000000),
        ("epochs", 1001),
        ("epochs", 100000000),
        ("devices", 10001),
        ("devices", 1000000000),
        ("switches", 257),
        ("switches", 1000000000),
        ("aps", 1001),
        ("aps", 1000000000),
        ("area_width", 1e200),
        ("area_height", 1e200),
    ],
)
def test_above_upper_bound_names_the_key(attr, value):
    with pytest.raises(ScenarioError, match=attr):
        Scenario(**{attr: value}).validate()


def test_upper_bounds_pass():
    Scenario(
        d_model=256, train_samples=1000000, epochs=1000, devices=10000, switches=256, aps=1000,
        area_width=9e153, area_height=9e153,
    ).validate()
