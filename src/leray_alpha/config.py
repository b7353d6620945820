"""Strict INI-style run configuration.

Unknown sections or keys are rejected by name, all numeric fields must be
finite, and the only applied default values are the documented ones (see
README for the full schema).  Sections:

    [model]    nu, alpha, theta1, theta2, n, nonlinear?
    [time]     dt, T, snapshot_every? (run only, default T/10), whole numbers
               of steps dt
    [noise]    family, seed?, sigma / modes / gamma + driver_dim
    [initial]  kind, mode / seed + slope, amplitude?
    [monitors] tau_R / rho_M / gamma_K = threshold   (optional section)
    [cutoff]   R                                     (optional section)
    [ensemble] size?, workers?                       (optional section)
    [output]   directory                             (optional section)
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .fields import ModelContext
from .integrator import MONITOR_KINDS, InitialData, Monitor, RunConfig, RunConfigError
from .noise import (
    AdditiveNoise,
    DiagonalSpectralNoise,
    LinearMultiplicativeNoise,
    NoiseFamily,
    decay_modes,
)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configurations."""


# section: (its required keys, its optional keys)
_SCHEMA = {
    "model": (("nu", "alpha", "theta1", "theta2", "n"), ("nonlinear",)),
    "time": (("dt", "T"), ("snapshot_every",)),
    "noise": (("family",), ("seed", "sigma", "modes", "gamma", "driver_dim")),
    "initial": (("kind",), ("mode", "seed", "slope", "amplitude")),
    "monitors": ((), MONITOR_KINDS),
    "cutoff": (("R",), ()),
    "ensemble": ((), ("size", "workers")),
    "output": ((), ("directory",)),
}
_REQUIRED_SECTIONS = ("model", "time", "noise", "initial")
# the section of each RunConfig field whose check can fail
_FIELD_SECTIONS = {
    "dt": "time",
    "horizon": "time",
    "snapshot_every": "time",
    "seed": "noise",
    "noise": "noise",
    "initial": "initial",
    "cutoff_radius": "cutoff",
}


@dataclass(frozen=True)
class ParsedConfig:
    run: RunConfig
    ensemble_size: int
    workers: int
    output_dir: str | None
    # whether [time] snapshot_every was given: run.snapshot_every holds the
    # T/10 default otherwise, and ensemble rejects an explicit one
    snapshot_every_given: bool


def _float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: value must be finite, got {raw!r}")
    return value


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: {raw!r} is not an integer") from None


def _bool(section: str, key: str, raw: str) -> bool:
    token = raw.strip().lower()
    if token in ("true", "yes", "1", "on"):
        return True
    if token in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: {raw!r} is not a boolean")


def _mode(section: str, key: str, raw: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"[{section}] {key}: expected 'k1,k2,k3', got {raw!r}")
    return tuple(_int(section, key, p) for p in parts)  # type: ignore[return-value]


def _mode_list(section: str, key: str, raw: str):
    modes, sigmas = [], []
    for entry in raw.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        if ":" not in entry:
            raise ConfigError(f"[{section}] {key}: entry {entry!r} must be 'k1,k2,k3:sigma'")
        mode_part, sigma_part = entry.rsplit(":", 1)
        modes.append(_mode(section, key, mode_part))
        sigmas.append(_float(section, key, sigma_part))
    if not modes:
        raise ConfigError(f"[{section}] {key}: no mode entries")
    return modes, sigmas


@contextmanager
def _owned(where: str):
    """Report a ValueError that the owner of a value raises as a ConfigError
    that starts with where."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where} {exc}") from None


def _build_noise(opts: dict[str, str], n: int) -> NoiseFamily:
    family = opts["family"].strip().lower().replace("-", "_")
    has_modes = "modes" in opts
    has_decay = "gamma" in opts or "driver_dim" in opts
    if family == "linear_multiplicative":
        if has_modes or has_decay:
            raise ConfigError("[noise] linear_multiplicative takes only sigma (no modes/gamma/driver_dim)")
        if "sigma" not in opts:
            raise ConfigError("[noise] sigma is required for linear_multiplicative")
        return LinearMultiplicativeNoise(_float("noise", "sigma", opts["sigma"]))
    if family in ("additive", "diagonal_spectral"):
        cls = AdditiveNoise if family == "additive" else DiagonalSpectralNoise
        if has_modes and has_decay:
            raise ConfigError("[noise] give either modes or a decay law, not both")
        if has_modes:
            modes, sigmas = _mode_list("noise", "modes", opts["modes"])
        elif has_decay:
            for needed in ("sigma", "gamma", "driver_dim"):
                if needed not in opts:
                    raise ConfigError(f"[noise] {needed} is required for the decay law")
            modes, sigmas = decay_modes(
                n,
                _int("noise", "driver_dim", opts["driver_dim"]),
                _float("noise", "sigma", opts["sigma"]),
                _float("noise", "gamma", opts["gamma"]),
            )
        else:
            raise ConfigError(f"[noise] {family} needs modes or a decay law (sigma, gamma, driver_dim)")
        return cls(tuple(modes), tuple(sigmas), n)
    raise ConfigError(
        f"[noise] family: unknown family {family!r} "
        "(expected additive, linear_multiplicative or diagonal_spectral)"
    )


def _build_initial(opts: dict[str, str]) -> InitialData:
    kind = opts["kind"].strip().lower()
    amplitude = _float("initial", "amplitude", opts.get("amplitude", "1.0"))
    if kind == "single_mode":
        if "mode" not in opts:
            raise ConfigError("[initial] mode is required for kind=single_mode")
        for forbidden in ("seed", "slope"):
            if forbidden in opts:
                raise ConfigError(f"[initial] {forbidden} only applies to kind=random")
        return InitialData(kind="single_mode", mode=_mode("initial", "mode", opts["mode"]), amplitude=amplitude)
    if kind == "random":
        if "mode" in opts:
            raise ConfigError("[initial] mode only applies to kind=single_mode")
        return InitialData(
            kind="random",
            amplitude=amplitude,
            seed=_int("initial", "seed", opts.get("seed", "0")),
            slope=_float("initial", "slope", opts.get("slope", "2.0")),
        )
    raise ConfigError(f"[initial] kind: unknown kind {kind!r} (expected single_mode or random)")


def parse_config(text: str, seed_override: int | None = None) -> ParsedConfig:
    """Parse and validate a configuration document into a RunConfig plus
    orchestration settings; every reported problem names the offending key."""
    parser = configparser.ConfigParser(
        delimiters=("=",), interpolation=None, comment_prefixes=("#", ";")
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for name, keys in sections.items():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        required, optional = _SCHEMA[name]
        for key in keys:
            if key not in required + optional:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    for name, keys in sections.items():
        for key in _SCHEMA[name][0]:
            if key not in keys:
                raise ConfigError(f"[{name}] {key} is required")

    model = sections["model"]
    params = {key: _float("model", key, model[key]) for key in ("nu", "alpha", "theta1", "theta2")}
    n = _int("model", "n", model["n"])
    with _owned("[model]"):
        ctx = ModelContext(n=n, **params)
    nonlinear = _bool("model", "nonlinear", model.get("nonlinear", "true"))

    time = sections["time"]
    dt = _float("time", "dt", time["dt"])
    horizon = _float("time", "T", time["T"])
    snapshot_every = None
    if "snapshot_every" in time:
        snapshot_every = _float("time", "snapshot_every", time["snapshot_every"])

    with _owned("[noise]"):
        noise = _build_noise(sections["noise"], n)
    seed = _int("noise", "seed", sections["noise"].get("seed", "0"))
    if seed_override is not None:
        seed = seed_override

    with _owned("[initial]"):
        initial = _build_initial(sections["initial"])

    monitors = []
    for kind, raw in sections.get("monitors", {}).items():
        threshold = _float("monitors", kind, raw)
        with _owned(f"[monitors] {kind}:"):
            monitors.append(Monitor(kind, threshold))

    cutoff = _float("cutoff", "R", sections["cutoff"]["R"]) if "cutoff" in sections else None

    ens = sections.get("ensemble", {})
    size = _int("ensemble", "size", ens.get("size", "1"))
    workers = _int("ensemble", "workers", ens.get("workers", "1"))
    if size < 1:
        raise ConfigError("[ensemble] size must be >= 1")
    if workers < 1:
        raise ConfigError("[ensemble] workers must be >= 1")

    output_dir = sections.get("output", {}).get("directory")

    try:
        run = RunConfig(
            ctx=ctx,
            dt=dt,
            horizon=horizon,
            noise=noise,
            initial=initial,
            seed=seed,
            cutoff_radius=cutoff,
            monitors=tuple(monitors),
            snapshot_every=snapshot_every,
            nonlinear=nonlinear,
        )
        if snapshot_every is None:
            # the step count nearest T/10, at least one
            run = replace(run, snapshot_every=max(1, int(round((horizon / 10.0) / dt))) * dt)
    except RunConfigError as exc:
        raise ConfigError(f"[{_FIELD_SECTIONS[exc.field]}] {exc}") from None
    return ParsedConfig(
        run=run,
        ensemble_size=size,
        workers=workers,
        output_dir=output_dir,
        snapshot_every_given=snapshot_every is not None,
    )
