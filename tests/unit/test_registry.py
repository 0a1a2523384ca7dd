"""The experiment registry's parameter spec (repro.experiments.registry)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.experiments import registry
from repro.pipeline.shards import build_plan
from repro.simcore.backend import AUTO_KERNEL, KERNELS

PARAMS = [
    (experiment.name, param)
    for experiment in registry.EXPERIMENTS.values()
    for param in experiment.params
]


def _zero(param: registry.Param) -> object:
    """The explicit zero/empty value of a parameter's type."""
    return [] if param.kind != "one" else param.type()


@pytest.mark.parametrize(
    "grid,param", PARAMS, ids=[f"{g}-{p.name}" for g, p in PARAMS]
)
def test_explicit_zero_is_never_replaced_by_the_default(grid, param):
    zero = _zero(param)
    try:
        plan = build_plan(grid, {param.name: zero}, 1)
    except ConfigError:
        return
    assert plan.params[param.name] == zero


@pytest.mark.parametrize(
    "grid,params,planned",
    [
        ("table1", {"seeds": []}, None),
        ("fleet", {"subscribers": 0}, None),
        ("fleet", {"duration": 0.0}, None),
        ("compare", {"drop_ratio": 0.0}, None),
        ("sweep", {"ratios": [0.0]}, None),
        ("chaos", {"fault_at": 0.0}, {"fault_at": 0.0}),
    ],
)
def test_zero_values_plan_as_given_or_are_rejected(grid, params, planned):
    if planned is None:
        with pytest.raises(ConfigError):
            build_plan(grid, params, 1)
    else:
        plan = build_plan(grid, params, 1)
        assert {k: plan.params[k] for k in planned} == planned


@pytest.mark.parametrize("grid", sorted(registry.EXPERIMENTS))
def test_absent_keys_take_the_defaults(grid):
    experiment = registry.get(grid)
    assert experiment.normalize({}) == {
        p.name: p.canonical(grid, p.default) for p in experiment.params
    }


@pytest.mark.parametrize("grid", sorted(registry.EXPERIMENTS))
def test_unknown_parameter_rejected(grid):
    with pytest.raises(ConfigError, match="unknown parameter"):
        registry.get(grid).normalize({"seed": [1]})


@pytest.mark.parametrize("grid", sorted(registry.EXPERIMENTS))
def test_seeds_zero_is_a_usage_error_on_every_grid(grid, capsys):
    assert main(["--no-cache", grid, "--seeds", "0"]) == 2
    assert "need at least one seed" in capsys.readouterr().err
    code = main(
        ["--no-cache", "shard", "plan", "--grid", grid,
         "--shards", "1", "--seeds", "0"]
    )
    assert code == 2
    assert "need at least one seed" in capsys.readouterr().err


def test_canonical_values_are_converted():
    params = registry.get("compare").normalize(
        {"drop_ratio": "0.5", "seeds": (2,), "policies": ["webrtc"]}
    )
    assert params == {
        "drop_ratio": 0.5, "seeds": [2], "policies": ["webrtc"],
    }


def test_bad_values_are_config_errors():
    compare = registry.get("compare")
    with pytest.raises(ConfigError, match="unknown policy"):
        compare.normalize({"policies": ["nonsense"]})
    with pytest.raises(ConfigError, match="must be a list"):
        compare.normalize({"seeds": 3})
    with pytest.raises(ConfigError, match="not a float"):
        compare.normalize({"drop_ratio": "steep"})
    with pytest.raises(ConfigError, match="unknown grid"):
        registry.get("bogus")


def test_kernel_choices_come_from_the_backend():
    [kernel] = [
        action for action in build_parser()._actions
        if "--kernel" in action.option_strings
    ]
    assert kernel.choices == [AUTO_KERNEL, *KERNELS]
