"""Strict config parsing."""

import pytest

from leray_alpha.config import ConfigError, parse_config
from leray_alpha.noise import AdditiveNoise, DiagonalSpectralNoise, LinearMultiplicativeNoise

MINIMAL = """
[model]
nu = 1.0
alpha = 1.0
theta1 = 1.0
theta2 = 1.0
n = 4

[time]
dt = 0.01
T = 1.0

[noise]
family = linear_multiplicative
sigma = 0.1

[initial]
kind = random
seed = 3
slope = 2.0
"""


def test_minimal_document_defaults():
    parsed = parse_config(MINIMAL)
    run = parsed.run
    assert run.ctx.nu == 1.0 and run.ctx.n == 4
    assert run.dt == 0.01 and run.horizon == 1.0
    assert run.snapshot_every == pytest.approx(0.1)  # documented default T/10
    assert isinstance(run.noise, LinearMultiplicativeNoise)
    assert run.seed == 0
    assert run.cutoff_radius is None
    assert run.monitors == ()
    assert run.nonlinear is True
    assert parsed.ensemble_size == 1 and parsed.workers == 1
    assert parsed.output_dir is None


def test_theta2_zero_rejected():
    bad = MINIMAL.replace("theta2 = 1.0", "theta2 = 0")
    with pytest.raises(ConfigError, match="theta2 must be > 0"):
        parse_config(bad)


def test_unknown_key_rejected_by_name():
    bad = MINIMAL.replace("theta1 = 1.0", "theta1 = 1.0\nthetaa1 = 2.0")
    with pytest.raises(ConfigError, match="thetaa1"):
        parse_config(bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="extras"):
        parse_config(MINIMAL + "\n[extras]\nfoo = 1\n")


def test_missing_section_rejected():
    bad = MINIMAL.replace("[initial]", "[output]").replace("kind = random", "directory = x")
    bad = bad.replace("seed = 3", "").replace("slope = 2.0", "")
    with pytest.raises(ConfigError, match=r"\[initial\]"):
        parse_config(bad)


def test_missing_required_key_names_it():
    bad = MINIMAL.replace("nu = 1.0\n", "")
    with pytest.raises(ConfigError, match="nu"):
        parse_config(bad)


@pytest.mark.parametrize("theta2, accepted", [("182.0", True), ("183.0", False), ("1e308", False)])
def test_theta2_whose_norm_weight_overflows_rejected(theta2, accepted):
    # the largest weight |k|^{2 (theta2 + 1)} is 48^(theta2 + 1) at n = 4,
    # which overflows a double from theta2 + 1 = 184 on
    text = MINIMAL.replace("theta2 = 1.0", f"theta2 = {theta2}")
    if accepted:
        assert parse_config(text).run.ctx.theta2 == float(theta2)
    else:
        with pytest.raises(ConfigError, match=r"^\[model\] \(3 n\^2\)\^\(theta2 \+ 1\) must be a finite double$"):
            parse_config(text)


def test_step_count_no_array_can_hold_rejected():
    # 10^20 steps: numpy cannot shape a member's (8, steps + 1) series block
    text = MINIMAL.replace("dt = 0.01", "dt = 1.0").replace("T = 1.0", "T = 1e20")
    message = r"^\[time\] horizon T = 1e\+20 is 100000000000000000000 steps dt = 1.0, more than an array can hold$"
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_dt_not_smaller_than_horizon_rejected():
    bad = MINIMAL.replace("dt = 0.01", "dt = 2.0")
    with pytest.raises(ConfigError, match="dt must be smaller than T"):
        parse_config(bad)


def test_off_grid_times_rejected():
    # dt = 0.3, T = 1.0 would end at t = 0.9 and snapshot every 0.3
    bad = MINIMAL.replace("dt = 0.01", "dt = 0.3")
    with pytest.raises(ConfigError, match=r"\[time\] horizon T = 1.0 is not a whole number of steps dt = 0.3"):
        parse_config(bad)
    bad = MINIMAL.replace("T = 1.0", "T = 1.0\nsnapshot_every = 0.025")
    with pytest.raises(ConfigError, match=r"\[time\] snapshot_every = 0.025 is not a whole number of steps"):
        parse_config(bad)
    bad = MINIMAL.replace("T = 1.0", "T = 1.0\nsnapshot_every = 0.005")
    with pytest.raises(ConfigError, match="snapshot_every"):
        parse_config(bad)


def test_on_grid_times_accepted():
    # 0.3 / 0.1 is 2.9999999999999996 in floating point
    text = MINIMAL.replace("dt = 0.01", "dt = 0.1").replace("T = 1.0", "T = 0.3\nsnapshot_every = 0.3")
    run = parse_config(text).run
    assert run.steps == 3 and run.snapshot_every == 0.3


@pytest.mark.parametrize("dt, horizon, cadence", [(0.01, 1.0, 10), (0.04, 1.0, 2), (0.1, 0.3, 1), (0.25, 2.0, 1)])
def test_default_snapshot_cadence_is_never_rejected(dt, horizon, cadence):
    # the step count nearest T/10 (round half to even), as before the check
    text = MINIMAL.replace("dt = 0.01", f"dt = {dt}").replace("T = 1.0", f"T = {horizon}")
    run = parse_config(text).run
    assert round(run.snapshot_every / run.dt) == cadence == max(1, round(horizon / 10 / dt))


def test_non_finite_rejected():
    bad = MINIMAL.replace("nu = 1.0", "nu = inf")
    with pytest.raises(ConfigError, match="finite"):
        parse_config(bad)


def test_non_numeric_rejected():
    bad = MINIMAL.replace("dt = 0.01", "dt = fast")
    with pytest.raises(ConfigError, match="not a number"):
        parse_config(bad)


def test_additive_modes_parse():
    text = MINIMAL.replace(
        "family = linear_multiplicative\nsigma = 0.1",
        "family = additive\nmodes = 0,0,1:0.2; 1,1,0:0.1",
    )
    noise = parse_config(text).run.noise
    assert isinstance(noise, AdditiveNoise)
    assert noise.modes == ((0, 0, 1), (1, 1, 0))
    assert noise.sigmas == (0.2, 0.1)


def test_diagonal_decay_law():
    text = MINIMAL.replace(
        "family = linear_multiplicative\nsigma = 0.1",
        "family = diagonal_spectral\nsigma = 0.5\ngamma = 1.0\ndriver_dim = 4",
    )
    noise = parse_config(text).run.noise
    assert isinstance(noise, DiagonalSpectralNoise)
    assert noise.dim == 4


def test_noise_family_required_fields():
    text = MINIMAL.replace("family = linear_multiplicative\nsigma = 0.1", "family = additive")
    with pytest.raises(ConfigError, match="modes or a decay law"):
        parse_config(text)
    text = MINIMAL.replace("sigma = 0.1", "sigma = 0.1\nmodes = 0,0,1:0.2")
    with pytest.raises(ConfigError, match="linear_multiplicative takes only sigma"):
        parse_config(text)


@pytest.mark.parametrize("family", ["additive", "diagonal_spectral"])
@pytest.mark.parametrize("driver_dim", [0, -1])
def test_empty_or_negative_driver_set_rejected(family, driver_dim):
    text = MINIMAL.replace(
        "family = linear_multiplicative\nsigma = 0.1",
        f"family = {family}\nsigma = 0.5\ngamma = 1.0\ndriver_dim = {driver_dim}",
    )
    with pytest.raises(ConfigError, match=rf"^\[noise\] driver_dim must be >= 1, got {driver_dim}$"):
        parse_config(text)


def test_noise_mode_outside_truncation():
    text = MINIMAL.replace(
        "family = linear_multiplicative\nsigma = 0.1",
        "family = additive\nmodes = 0,0,9:0.2",
    )
    with pytest.raises(ConfigError, match="outside the truncation"):
        parse_config(text)


def test_monitors_cutoff_ensemble_output():
    text = (
        MINIMAL
        + """
[monitors]
tau_R = 5.0
gamma_K = 12.5

[cutoff]
R = 4.0

[ensemble]
size = 8
workers = 2

[output]
directory = results
"""
    )
    parsed = parse_config(text)
    kinds = {m.kind: m.threshold for m in parsed.run.monitors}
    assert kinds == {"tau_R": 5.0, "gamma_K": 12.5}
    assert parsed.run.cutoff_radius == 4.0
    assert parsed.ensemble_size == 8 and parsed.workers == 2
    assert parsed.output_dir == "results"


def test_monitor_threshold_positive():
    with pytest.raises(ConfigError, match="tau_R"):
        parse_config(MINIMAL + "\n[monitors]\ntau_R = -1\n")


def test_seed_override():
    parsed = parse_config(MINIMAL.replace("sigma = 0.1", "sigma = 0.1\nseed = 5"))
    assert parsed.run.seed == 5
    parsed = parse_config(MINIMAL, seed_override=42)
    assert parsed.run.seed == 42


def test_single_mode_initial():
    text = MINIMAL.replace(
        "kind = random\nseed = 3\nslope = 2.0",
        "kind = single_mode\nmode = 1,0,0\namplitude = 2.0",
    )
    initial = parse_config(text).run.initial
    assert initial.kind == "single_mode"
    assert initial.mode == (1, 0, 0)
    assert initial.amplitude == 2.0


def test_single_mode_rejects_random_keys():
    text = MINIMAL.replace(
        "kind = random\nseed = 3\nslope = 2.0",
        "kind = single_mode\nmode = 1,0,0\nslope = 2.0",
    )
    with pytest.raises(ConfigError, match="slope"):
        parse_config(text)


def test_nonlinear_toggle():
    assert parse_config(MINIMAL.replace("n = 4", "n = 4\nnonlinear = false")).run.nonlinear is False


SINGLE_MODE = "kind = single_mode\nmode = {}\namplitude = 1.0"


@pytest.mark.parametrize(
    "initial, message",
    [
        ("kind = random\nseed = -1\nslope = 2.0", r"\[initial\] seed must be >= 0"),
        (SINGLE_MODE.format("0,0,0"), r"\[initial\] the zero mode is excluded"),
        (SINGLE_MODE.format("5,0,0"), r"initial mode \(5, 0, 0\) lies outside the truncation n=4"),
        (SINGLE_MODE.format("0,-5,0"), r"initial mode \(0, -5, 0\) lies outside the truncation n=4"),
    ],
)
def test_initial_data_rejected_at_parse(initial, message):
    # each of these used to parse and then fail inside run / ensemble
    with pytest.raises(ConfigError, match=message):
        parse_config(MINIMAL.replace("kind = random\nseed = 3\nslope = 2.0", initial))


def test_initial_mode_on_the_truncation_edge_accepted():
    text = MINIMAL.replace("kind = random\nseed = 3\nslope = 2.0", SINGLE_MODE.format("-4,4,0"))
    assert parse_config(text).run.initial.mode == (-4, 4, 0)


# The MINIMAL document by section, for the rejection table below.
SECTIONS = {
    "model": {"nu": "1.0", "alpha": "1.0", "theta1": "1.0", "theta2": "1.0", "n": "4"},
    "time": {"dt": "0.01", "T": "1.0"},
    "noise": {"family": "linear_multiplicative", "sigma": "0.1"},
    "initial": {"kind": "random", "seed": "3", "slope": "2.0"},
}
MODE_FAMILIES = ("additive", "diagonal_spectral")
DECAY_LAW = {"sigma": "0.5", "gamma": "1.0", "driver_dim": "4"}


def document(section: str, keys: dict | None) -> str:
    """SECTIONS with one section's keys replaced, or the section left out
    (keys None)."""
    sections = {**SECTIONS, section: keys}
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for name, body in sections.items()
        if body is not None
    )


def without(section: str, key: str) -> tuple[str, dict]:
    return section, {k: v for k, v in SECTIONS[section].items() if k != key}


# ((section, its keys), the whole message): every missing required key and
# every forbidden combination of keys
REJECTIONS = [
    *[(without("model", key), f"[model] {key} is required") for key in SECTIONS["model"]],
    *[(without("time", key), f"[time] {key} is required") for key in SECTIONS["time"]],
    (without("noise", "family"), "[noise] family is required"),
    (without("initial", "kind"), "[initial] kind is required"),
    (("cutoff", {}), "[cutoff] R is required"),
    *[
        (("noise", {"family": "linear_multiplicative", "sigma": "0.1", key: value}),
         "[noise] linear_multiplicative takes only sigma (no modes/gamma/driver_dim)")
        for key, value in (("modes", "0,0,1:0.2"), ("gamma", "1.0"), ("driver_dim", "4"))
    ],
    (("noise", {"family": "linear_multiplicative"}), "[noise] sigma is required for linear_multiplicative"),
    *[
        (("noise", {"family": family, "modes": "0,0,1:0.2", "gamma": "1.0"}),
         "[noise] give either modes or a decay law, not both")
        for family in MODE_FAMILIES
    ],
    *[
        (("noise", {"family": family, **{k: v for k, v in DECAY_LAW.items() if k != needed}}),
         f"[noise] {needed} is required for the decay law")
        for family in MODE_FAMILIES
        for needed in DECAY_LAW
    ],
    *[
        (("noise", {"family": family, "sigma": "0.5"}),
         f"[noise] {family} needs modes or a decay law (sigma, gamma, driver_dim)")
        for family in MODE_FAMILIES
    ],
    (("initial", {"kind": "single_mode"}), "[initial] mode is required for kind=single_mode"),
    *[
        (("initial", {"kind": "single_mode", "mode": "1,0,0", key: value}),
         f"[initial] {key} only applies to kind=random")
        for key, value in (("seed", "3"), ("slope", "2.0"))
    ],
    (("initial", {"kind": "random", "mode": "1,0,0"}), "[initial] mode only applies to kind=single_mode"),
    *[((name, None), f"missing required section [{name}]") for name in SECTIONS],
    (("output", {"folder": "x"}), "unknown key 'folder' in section [output]"),
    (("extras", {"foo": "1"}), "unknown section [extras]"),
    (("noise", {"family": "brownian"}),
     "[noise] family: unknown family 'brownian' (expected additive, linear_multiplicative or diagonal_spectral)"),
    (("initial", {"kind": "gaussian"}), "[initial] kind: unknown kind 'gaussian' (expected single_mode or random)"),
    (("ensemble", {"size": "0"}), "[ensemble] size must be >= 1"),
    (("ensemble", {"workers": "0"}), "[ensemble] workers must be >= 1"),
]


@pytest.mark.parametrize(
    "section, keys, message",
    [(section, keys, message) for (section, keys), message in REJECTIONS],
    ids=[message for _, message in REJECTIONS],
)
def test_rejection_message(section, keys, message):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(document(section, keys))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "text",
    ["nu = 1.0\n" + document("model", SECTIONS["model"]), document("model", SECTIONS["model"]) + "[model]\nn = 2\n"],
    ids=["key-before-any-section", "duplicate-section"],
)
def test_malformed_document_rejected(text):
    with pytest.raises(ConfigError, match="^malformed config: "):
        parse_config(text)
