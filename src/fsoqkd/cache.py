"""Persistent field-profile cache: the record store in one directory.

The store reads no environment; the CLI builds one when ``FSOQKD_CACHE``
names a directory.  :meth:`ProfileDiskCache.get_or_compute` is its one
entry point, and nothing here lists or deletes records: removing the
directory empties the cache.  An entry's file name is a 128-bit content hash
of the profile key (see :func:`diffraction.profile_key`) together with the
grid-policy version, and the file holds the versioned binary profile record.
A read joins the directory and that name with ``os.path.join``, reads the
whole file with one unbuffered ``os.read`` sized by ``os.fstat``, and hands
the bytes, the requested key and the caller's source to
:func:`diffraction.deserialize_profile`.  The record is used only if it
deserializes (right version and length, a grid strictly increasing from 0,
every value finite) and its header and last node equal the requested key;
the profile's arrays are views of the bytes and its source is the caller's,
so a read builds no beam or annulus.  Writes are atomic (temp file +
rename); corrupt or mismatched entries are recomputed and overwritten with a
warning.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import tempfile
from pathlib import Path

from .diffraction import (GRID_POLICY_VERSION, DiskSpec, FieldProfile,
                          SourceAnnulus, deserialize_profile, profile_key,
                          propagate_profile, serialize_profile)

log = logging.getLogger(__name__)


def _filename(key: tuple) -> str:
    packed = struct.pack(f"<{len(key)}dI", *key, GRID_POLICY_VERSION)
    return hashlib.blake2b(packed, digest_size=16).hexdigest() + ".profile"


class ProfileDiskCache:
    """The cache in one directory, which the first write creates."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def get_or_compute(self, src: SourceAnnulus, distance: float,
                       disk_hint: DiskSpec) -> FieldProfile:
        key = profile_key(src, distance, disk_hint.center_offset + disk_hint.radius)
        name = _filename(key)
        path = os.path.join(self.directory, name)
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                blob = os.read(fd, os.fstat(fd).st_size)
            finally:
                os.close(fd)
            profile = deserialize_profile(blob, key, src)
        except FileNotFoundError:
            pass
        except ValueError as exc:
            log.warning("cache entry %s unreadable (%s); recomputing", name, exc)
        else:
            if profile is not None:
                return profile
            log.warning("cache entry %s does not match its key; recomputing", name)
        profile = propagate_profile(src, distance, disk_hint)
        self._write_atomic(path, serialize_profile(profile))
        return profile

    def _write_atomic(self, path: str, blob: bytes):
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)  # atomic on POSIX rename semantics
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
