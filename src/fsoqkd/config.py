"""Run configuration: a versioned JSON key-value tree.

The config holds what is computed: link, beam, protocol and grid.  Where
and how a run happens comes from the command line and the environment alone:
the output directory (``--out``) and the profile cache, which the CLI turns
on when ``FSOQKD_CACHE`` names a directory.  Every run is single-threaded;
``--threads`` is accepted and has no effect, kept only because the benchmark
passes it.

The schema is the set of ``RunConfig`` fields (``wavefront`` a nested
object of ``WavefrontSettings`` fields) plus an optional ``version``; an
unknown key is an error.  ``mu`` serializes as the string "inf" for the
infinite-power sentinel since JSON has no infinity literal; everything else
round-trips losslessly (floats via repr).

A ``RunConfig`` that exists is valid: construction checks that each bool,
str and int field holds that type and no float field a bool, then builds the
domain objects, each value's rule in the object that uses it, as a range
that NaN and ±inf fail.  ``BeamParams`` checks the wavelength and waist;
``Geometry`` the distances, radii and offset; ``RateInputs`` mu (``inf``
allowed), beta, f_L and the pulse rate; ``thermal_occupation`` the
temperature; ``SweepSpec`` the grid, the noise and the objective, and that
both grid ends give valid settings; ``arago_geometry``, under
``emit_arago_overlay``, that the sweep has a bright-spot curve;
``WavefrontSettings`` the wavefront grid, where no number may be a bool and
no two distances may round to the same metre, the unit of a map's file name.
Their ``ValueError`` or ``TypeError`` becomes a :class:`ConfigError`.
``sweep_count`` does not set the grid of the distance search
(``optimal-distance``): :func:`~fsoqkd.sweeps.distance_grid` builds it from
the geometry alone.
These checks hold for every command.  What depends on the command, whether
its producer can give any row within the profile budget, is
:func:`~fsoqkd.sweeps.check_producer`, which the CLI runs on every config
before it writes anything; a row that fails at run time is an error row.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .beams import BeamParams
from .channel import Geometry, Scenario, default_noise
from .rates import RateInputs
from .sweeps import SweepSpec, arago_geometry

CONFIG_VERSION = 1
# the field types that ``validate`` checks, besides a float field holding a
# bool; the domain objects check the rest
_CHECKED_TYPES = {"bool": bool, "int": int, "str": str}


class ConfigError(ValueError):
    """Invalid or unusable run configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class WavefrontSettings:
    half_width: float = 0.35
    pixels: int = 201
    distances: tuple = (60_000.0,)

    def __post_init__(self):
        if not (type(self.pixels) is int and self.pixels >= 1
                and type(self.half_width) is not bool and 0 < self.half_width < math.inf):
            raise ValueError("wavefront grid must have a positive, finite half_width "
                             "and a positive integer number of pixels")
        if not self.distances or not all(type(d) is not bool and 0 < d < math.inf
                                         for d in self.distances):
            raise ValueError(f"wavefront distances must be positive and finite, "
                             f"got {list(self.distances)!r}")
        seen = {}  # a map's file name holds its distance in whole metres
        for d in self.distances:
            if round(d) in seen:
                raise ValueError(f"wavefront distances {seen[round(d)]!r} and {d!r} "
                                 f"round to the same metre, so their maps would "
                                 f"share a file name")
            seen[round(d)] = d


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

    def __post_init__(self):
        self.validate()

    def validate(self) -> "RunConfig":
        """Check the field types, then build the domain objects, which check
        the values; raises :class:`ConfigError`."""
        for f in fields(self):
            kind = _CHECKED_TYPES.get(f.type)
            value = getattr(self, f.name)
            if (type(value) is not kind if kind is not None
                    else type(value) is bool and f.type in ("float", "float | None")):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        try:
            spec = self.sweep_spec()
            if self.emit_arago_overlay:
                arago_geometry(spec)
            default_noise(self.beam(), self.temperature)  # also under noise_override
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
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
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
