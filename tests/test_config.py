"""Config grammar: parsing, validation, canonical round-trip."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosde.config import RunConfig, config_hash, parse_config, serialize, validate_config
from dosde.errors import ParseError, ValidationError

GOOD = """
# a comment
model.name = ou
model.kappa = 1.5
model.sigma = 0.5

run.scheme = do
run.t_end = 0.5
run.dt = 1e-3
run.n_atoms = 64
run.rank = 2
run.dim = 4
run.seed = 7
run.out_dir = results/a
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.model_name == "ou"
    assert cfg.model_params == {"kappa": 1.5, "sigma": 0.5}
    assert cfg.scheme == "do"
    assert cfg.t_end == 0.5
    assert cfg.dt == 1e-3
    assert cfg.n_atoms == 64
    assert cfg.seed == 7
    assert cfg.out_dir == "results/a"
    # untouched keys keep their defaults
    assert cfg.record_stride == 1
    assert cfg.gamma_cap_factor == 1e8


def test_parse_list_values():
    cfg = parse_config(
        "model.name = linear_lowrank\nmodel.lambdas = [-0.5, -2.0]\nrun.dim = 8\n"
    )
    assert cfg.model_params["lambdas"] == (-0.5, -2.0)
    cfg = parse_config("model.name = linear_lowrank\nmodel.lambdas = []\nrun.dim = 8\n")
    assert cfg.model_params["lambdas"] == ()


@pytest.mark.parametrize(
    "line,needle",
    [
        ("run.bogus = 3", "unknown key"),
        ("nosection.key = 3", "unknown key"),
        ("garbage without equals", "expected"),
        ("run.n_atoms = 3.5", "must be an integer"),
        ("run.dt = fast", "must be a real"),
        ("monitor.sv_tolerance = [1e-8]", "must be a real"),
        ("run.scheme = 3", "must be a string"),
        ("run.t_end = banana!!", "cannot parse"),
        ("model.lambdas = [0.5,", "unterminated"),
        ("model.lambdas = [a, b]", "bad list element"),
        ("model.name = 3", "model.name must be a string"),
    ],
)
def test_parse_errors_carry_line_numbers(line, needle):
    text = "model.name = ou\n" + line + "\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert needle in str(err.value)
    assert err.value.line == 2


def test_missing_model_name():
    with pytest.raises(ValidationError) as err:
        parse_config("run.dt = 1e-3\nrun.t_end = 1.0\n")
    assert err.value.field == "model.name"


@pytest.mark.parametrize(
    "mutation,field",
    [
        ({"model_name": "nope"}, "model.name"),
        ({"scheme": "heun"}, "run.scheme"),
        ({"n_atoms": 0}, "run.n_atoms"),
        ({"dt": -1.0}, "run.dt"),
        ({"dt": 2.0}, "run.dt"),  # dt > t_end
        ({"rank": 9, "dim": 4}, "run.rank"),
        ({"model_params": {"bogus": 1.0}}, "model.bogus"),
        ({"compare_scheme_b": "x"}, "compare.scheme_b"),
        ({"sv_tolerance": 0.0}, "monitor.sv_tolerance"),
        ({"harness_rank": 4, "harness_atoms": 3}, "harness.rank"),
        ({"harness_rank": 4, "harness_dim": 3}, "harness.rank"),
        ({"t_end": 0.1, "dt": 0.03}, "run.t_end"),  # off the dt grid
    ],
)
def test_validate_flags_field(mutation, field):
    cfg = parse_config(GOOD)
    for k, v in mutation.items():
        setattr(cfg, k, v)
    with pytest.raises(ValidationError) as err:
        validate_config(cfg)
    assert err.value.field == field


def test_booleans_are_not_serialized():
    cfg = parse_config(GOOD)
    cfg.model_params["kappa"] = True
    with pytest.raises(ValidationError, match="booleans"):
        serialize(cfg)


def test_only_the_seed_may_be_negative():
    assert parse_config(GOOD + "run.seed = -3\n").seed == -3
    with pytest.raises(ValidationError) as err:
        parse_config(GOOD + "run.record_stride = 0\n")
    assert err.value.field == "run.record_stride"


# Every key set away from its default; recorded when the key table held
# (attribute, type) pairs, so the canonical text and hash do not move.
FULL = """
model.name = linear_lowrank
model.lambdas = [-0.5, -2]
model.sigma_b = 0.25
run.scheme = ambient
run.t_end = 2
run.dt = 0.125
run.n_atoms = 300
run.rank = 3
run.dim = 6
run.seed = -3
run.record_stride = 4
run.out_dir = results/full-run
monitor.n_max = 9
monitor.gamma_cap_factor = 1e6
monitor.sv_tolerance = 2.5e-9
compare.scheme_b = reference
compare.levels = 2
picard.n_iters = 5
picard.grid = 16
harness.n_trials = 20
harness.n_atoms = 12
harness.dim = 5
harness.rank = 4
"""

FULL_CANONICAL = """model.name = linear_lowrank
model.lambdas = [-0.5, -2]
model.sigma_b = 0.25
compare.levels = 2
compare.scheme_b = reference
harness.dim = 5
harness.n_atoms = 12
harness.n_trials = 20
harness.rank = 4
monitor.gamma_cap_factor = 1000000
monitor.n_max = 9
monitor.sv_tolerance = 2.5000000000000001e-09
picard.grid = 16
picard.n_iters = 5
run.dim = 6
run.dt = 0.125
run.n_atoms = 300
run.out_dir = results/full-run
run.rank = 3
run.record_stride = 4
run.scheme = ambient
run.seed = -3
run.t_end = 2
"""


def test_serialize_matches_golden_text_and_hash():
    cfg = parse_config(FULL)
    assert serialize(cfg) == FULL_CANONICAL
    assert config_hash(cfg) == "f81a92d2342a8f2f"


def test_serialize_round_trip_fixed():
    cfg = parse_config(GOOD)
    again = parse_config(serialize(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_hash_sensitivity():
    cfg = parse_config(GOOD)
    other = dataclasses.replace(cfg, seed=8)
    assert config_hash(other) != config_hash(cfg)
    assert len(config_hash(cfg)) == 16


_model_st = st.sampled_from(
    [
        ("ou", {"kappa": st.floats(0.01, 10), "sigma": st.floats(0.01, 10)}),
        ("additive_floor", {"alpha": st.floats(0.01, 0.9), "sigma": st.floats(0.01, 10)}),
        ("gbm_clipped", {"mu": st.floats(0.01, 1), "sigma": st.floats(0.01, 2), "clip": st.floats(1, 10)}),
    ]
)


@st.composite
def _configs(draw):
    name, param_strats = draw(_model_st)
    params = {k: draw(v) for k, v in param_strats.items()}
    dim = draw(st.integers(1, 16))
    t_end = draw(st.floats(1e-3, 100.0))
    return RunConfig(
        model_name=name,
        model_params=params,
        scheme=draw(st.sampled_from(["do", "ambient", "reference"])),
        t_end=t_end,
        dt=t_end / draw(st.integers(1, 10000)),
        n_atoms=draw(st.integers(2, 100000)),
        rank=draw(st.integers(1, dim)),
        dim=dim,
        seed=draw(st.integers(0, 2**62)),
        record_stride=draw(st.integers(1, 1000)),
        out_dir=draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_./-]{0,30}", fullmatch=True)),
    )


@given(_configs())
@settings(max_examples=80, deadline=None)
def test_serialize_parse_round_trip_property(cfg):
    validate_config(cfg)
    text = serialize(cfg)
    again = parse_config(text)
    assert again == cfg
    assert serialize(again) == text
