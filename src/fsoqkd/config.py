"""Run configuration: a versioned JSON key-value tree.

The config holds what is computed: link, beam, protocol and grid.  Where
and how a run happens comes from the command line and the environment alone:
the output directory (``--out``), the worker threads (``--threads``, which
take whole row groups of a sweep, so that an L_BE, L_AE or mu sweep, one
group, runs in one thread) and the profile cache (``FSOQKD_CACHE``).

The schema is the set of ``RunConfig`` fields (``wavefront`` a nested
object of ``WavefrontSettings`` fields) plus an optional ``version``; an
unknown key is an error.  ``mu`` serializes as the string "inf" for the
infinite-power sentinel since JSON has no infinity literal; everything else
round-trips losslessly (floats via repr).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .beams import BeamParams
from .channel import Geometry, Scenario, default_noise
from .rates import OBJECTIVES, RateInputs
from .sweeps import SWEEP_PARAMETERS, SWEEP_SPACINGS, SweepSpec, _apply_parameter

CONFIG_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unusable run configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class WavefrontSettings:
    half_width: float = 0.35
    pixels: int = 201
    distances: tuple = (60_000.0,)


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "behind_bob"
    wavelength: float = 1550e-9
    waist_radius: float = 0.1
    alice_bob_distance: float = 50_000.0
    bob_eve_distance: float = 50_000.0
    eve_offset: float = 0.0
    bob_radius: float = 0.1
    eve_radius: float = 0.1
    mu: float = math.inf
    beta: float = 1.0
    f_L: float = 1.1
    pulse_rate: float = 1e9
    temperature: float = 3.0
    noise_override: float | None = None
    sweep_parameter: str = "L_BE"
    sweep_min: float = 1_000.0
    sweep_max: float = 400_000.0
    sweep_count: int = 120
    sweep_spacing: str = "log"
    tie_bob_eve_to_link: bool = False
    optimize_mu: bool = False
    objective: str = "lb_max"
    emit_arago_overlay: bool = False
    wavefront: WavefrontSettings = field(default_factory=WavefrontSettings)

    def validate(self):
        if self.scenario not in ("behind_bob", "before_bob"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        positives = dict(wavelength=self.wavelength, waist_radius=self.waist_radius,
                         alice_bob_distance=self.alice_bob_distance,
                         bob_eve_distance=self.bob_eve_distance,
                         bob_radius=self.bob_radius,
                         eve_radius=self.eve_radius, beta=self.beta,
                         pulse_rate=self.pulse_rate, temperature=self.temperature)
        for name, value in positives.items():
            if not value > 0:
                raise ConfigError(f"{name} must be positive, got {value!r}")
        if not self.beta <= 1:
            raise ConfigError(f"beta must lie in (0, 1], got {self.beta!r}")
        if not self.f_L >= 1:
            raise ConfigError(f"f_L must be >= 1, got {self.f_L!r}")
        if not self.mu > 0:
            raise ConfigError(f"mu must be positive (\"inf\" allowed), got {self.mu!r}")
        if self.noise_override is not None and not self.noise_override >= 0:
            raise ConfigError(
                f"noise_override must be nonnegative, got {self.noise_override!r}")
        if self.sweep_parameter not in SWEEP_PARAMETERS:
            raise ConfigError(f"unknown sweep_parameter {self.sweep_parameter!r}")
        if self.sweep_spacing not in SWEEP_SPACINGS:
            raise ConfigError(f"unknown sweep_spacing {self.sweep_spacing!r}")
        try:
            self.geometry()  # offset sign, before-Bob placement
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not (isinstance(self.sweep_count, int) and self.sweep_count >= 2):
            raise ConfigError(f"sweep_count must be an integer >= 2, "
                              f"got {self.sweep_count!r}")
        if not self.sweep_min < self.sweep_max:
            raise ConfigError("sweep_min must be below sweep_max")
        if self.sweep_spacing == "log" and not self.sweep_min > 0:
            raise ConfigError(f"a log sweep needs sweep_min > 0, "
                              f"got {self.sweep_min!r}")
        # each parameter's valid values form an interval and every grid is
        # monotone, so a grid is valid when both of its ends are
        spec = self.sweep_spec()
        for value in (self.sweep_min, self.sweep_max):
            try:
                _apply_parameter(spec, value)
            except ValueError as exc:
                raise ConfigError(
                    f"sweep {self.sweep_parameter} = {value!r}: {exc}") from exc
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}")
        wf = self.wavefront
        if not (isinstance(wf.pixels, int) and wf.pixels >= 1 and wf.half_width > 0):
            raise ConfigError("wavefront grid must have a positive half_width and "
                              "a positive integer number of pixels")
        if not wf.distances or not all(d > 0 for d in wf.distances):
            raise ConfigError(f"wavefront distances must be positive, got "
                              f"{list(wf.distances)!r}")
        return self

    # -- domain object builders ------------------------------------------

    def beam(self) -> BeamParams:
        return BeamParams(wavelength=self.wavelength, waist_radius=self.waist_radius)

    def geometry(self) -> Geometry:
        return Geometry(
            scenario=Scenario(self.scenario),
            alice_bob_distance=self.alice_bob_distance,
            bob_eve_distance=self.bob_eve_distance,
            eve_offset=self.eve_offset,
            bob_radius=self.bob_radius,
            eve_radius=self.eve_radius,
        )

    def noise(self) -> float:
        if self.noise_override is not None:
            return self.noise_override
        return default_noise(self.beam(), self.temperature)

    def rate_inputs(self) -> RateInputs:
        return RateInputs(mu=self.mu, beta=self.beta, f_L=self.f_L,
                          pulse_rate=self.pulse_rate)

    def sweep_spec(self) -> SweepSpec:
        return SweepSpec(parameter=self.sweep_parameter, minimum=self.sweep_min,
                         maximum=self.sweep_max, count=self.sweep_count,
                         spacing=self.sweep_spacing, geometry=self.geometry(),
                         beam=self.beam(), rates=self.rate_inputs(),
                         noise=self.noise(), optimize_power=self.optimize_mu,
                         objective=self.objective,
                         tie_bob_eve_to_link=self.tie_bob_eve_to_link)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        data = asdict(self)
        data["version"] = CONFIG_VERSION
        data["mu"] = "inf" if math.isinf(self.mu) else self.mu
        data["wavefront"]["distances"] = list(self.wavefront.distances)
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        version = data.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {version!r}")
        if data.get("mu") == "inf":
            data["mu"] = math.inf
        wf = data.pop("wavefront", None)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if wf is not None and not isinstance(wf, dict):
            raise ConfigError("wavefront must be an object")
        unknown = set(wf or ()) - set(WavefrontSettings.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown wavefront keys: {sorted(unknown)}")
        try:
            if wf is not None:
                if "distances" in wf:
                    wf = {**wf, "distances": tuple(wf["distances"])}
                data["wavefront"] = WavefrontSettings(**wf)
            return cls(**data).validate()
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
