"""Persistent field-profile cache.

Entries are keyed by a 128-bit content hash of the physical inputs (beam,
source annulus, propagation distance, radial coverage) together with the
grid-policy version, and stored as the versioned binary profile records.
Writes are atomic (temp file + rename); corrupt or mismatched entries are
recomputed and overwritten with a warning.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import diffraction
from .diffraction import (DiskSpec, FieldProfile, SourceAnnulus,
                          deserialize_profile, propagate_profile,
                          serialize_profile)

log = logging.getLogger(__name__)

CACHE_ENV_VAR = "FSOQKD_CACHE"

_KEY_STRUCT = struct.Struct("<9dI")


@dataclass(frozen=True)
class CacheKey:
    """Two 64-bit halves of the content hash."""

    high: int
    low: int

    @classmethod
    def for_profile(cls, src: SourceAnnulus, distance: float, coverage: float,
                    policy_version: int | None = None) -> "CacheKey":
        if policy_version is None:
            policy_version = diffraction.GRID_POLICY_VERSION
        beam = src.beam
        packed = _KEY_STRUCT.pack(
            beam.wavelength, beam.waist_radius, beam.field_peak,
            beam.refractive_index, src.plane_distance, src.inner_radius,
            src.outer_radius, distance, coverage, policy_version)
        digest = hashlib.blake2b(packed, digest_size=16).digest()
        return cls(high=int.from_bytes(digest[:8], "little"),
                   low=int.from_bytes(digest[8:], "little"))

    @property
    def filename(self) -> str:
        return f"{self.high:016x}{self.low:016x}.profile"


def _matches(profile: FieldProfile, src: SourceAnnulus, distance: float) -> bool:
    a, b = profile.source.beam, src.beam
    same_beam = (a.wavelength == b.wavelength and a.waist_radius == b.waist_radius
                 and a.field_peak == b.field_peak
                 and a.refractive_index == b.refractive_index)
    s = profile.source
    same_src = (s.plane_distance == src.plane_distance
                and s.inner_radius == src.inner_radius)
    return same_beam and same_src and profile.propagation_distance == distance


class ProfileDiskCache:
    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: CacheKey) -> Path:
        return self.directory / key.filename

    def get_or_compute(self, src: SourceAnnulus, distance: float,
                       disk_hint: DiskSpec) -> FieldProfile:
        coverage = disk_hint.center_offset + disk_hint.radius
        key = CacheKey.for_profile(src, distance, coverage)
        path = self.path_for(key)
        if path.exists():
            try:
                profile = deserialize_profile(path.read_bytes())
            except (ValueError, struct.error) as exc:
                log.warning("cache entry %s unreadable (%s); recomputing", path.name, exc)
            else:
                if _matches(profile, src, distance) and profile.truncation_radius >= coverage * (1 - 1e-12):
                    return profile
                log.warning("cache entry %s does not match its key; recomputing", path.name)
        profile = propagate_profile(src, distance, disk_hint)
        self._write_atomic(path, serialize_profile(profile))
        return profile

    def _write_atomic(self, path: Path, blob: bytes):
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)  # atomic on POSIX rename semantics
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def entries(self) -> list[Path]:
        return sorted(self.directory.glob("*.profile"))

    def clear(self) -> int:
        entries = self.entries()
        for entry in entries:
            entry.unlink()
        return len(entries)


def default_cache_dir() -> str | None:
    return os.environ.get(CACHE_ENV_VAR)
