"""Persistent field-profile cache: the record store in one directory.

The store reads no environment; the CLI builds one when ``FSOQKD_CACHE``
names a directory.  :meth:`ProfileDiskCache.get_or_compute` is its one
entry point, a profile provider of the signature of
:func:`diffraction.propagate_profiles`: it takes a batch of (source,
distance) requests on one disk hint and returns their profiles in order.
Nothing here lists or deletes records: removing the directory empties the
cache.  An entry's file name is a 128-bit content hash of the profile key
(see :func:`diffraction.profile_key`) together with the grid-policy
version, and the file holds the versioned binary profile record.  A batch
reads each of its files whole, by unbuffered ``os.read`` calls of 64 KiB
until one comes back short, into one buffer in the layout of
deserialize_profile's sequence form, and hands the buffer, the requested
keys and the callers' sources to one :func:`diffraction.deserialize_profile`
call.  A record is used only if it deserializes (right version and length,
a grid strictly increasing from 0, every value finite) and its header and
last node equal the requested key; the profiles' arrays are views of the
buffer and their sources are the callers', so a read builds no beam or
annulus.  If any record of the batch fails, each record is read again on
its own, so that each bad one is named in a warning; it and every missing
record is then computed with :func:`diffraction.propagate_profile` and
written on its own.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import tempfile
from pathlib import Path

from .diffraction import (GRID_POLICY_VERSION, RECORD_GAP, DiskSpec, FieldProfile,
                          SourceAnnulus, deserialize_profile, profile_key,
                          propagate_profile, serialize_profile)

log = logging.getLogger(__name__)

_GAP = bytes(RECORD_GAP)
_READ_SIZE = 1 << 16  # a record of up to 1,636 nodes takes one read


def _filename(key: tuple) -> str:
    packed = struct.pack(f"<{len(key)}dI", *key, GRID_POLICY_VERSION)
    return hashlib.blake2b(packed, digest_size=16).hexdigest() + ".profile"


def _read_records(paths) -> tuple[memoryview, dict[int, tuple[int, int]]]:
    """The files at ``paths`` in one read-only buffer, laid out for the
    sequence form of :func:`diffraction.deserialize_profile`, and the
    (start, stop) span of each by its index in ``paths``; a missing file
    has none."""
    buffer, spans = bytearray(), {}
    for i, path in enumerate(paths):
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            continue
        try:
            buffer += _GAP
            start = len(buffer)
            # a read of a regular file comes back short only at its end, so
            # no fstat is needed to size it
            while True:
                chunk = os.read(fd, _READ_SIZE)
                buffer += chunk
                if len(chunk) < _READ_SIZE:
                    break
        finally:
            os.close(fd)
        spans[i] = start, len(buffer)
    return memoryview(buffer).toreadonly(), spans


class ProfileDiskCache:
    """The cache in one directory, which the first write creates."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def get_or_compute(self, requests, disk_hint: DiskSpec) -> list[FieldProfile]:
        """The profiles of (source, distance) ``requests`` on ``disk_hint``,
        in request order: each record read, or computed and written."""
        coverage = disk_hint.center_offset + disk_hint.radius
        keys = [profile_key(src, distance, coverage) for src, distance in requests]
        folder = os.path.join(self.directory, "")
        paths = [folder + _filename(key) for key in keys]
        view, spans = _read_records(paths)
        profiles = [None] * len(requests)
        if spans:
            found = list(spans)
            read = deserialize_profile(view, [keys[i] for i in found],
                                       [requests[i][0] for i in found], list(spans.values()))
            if read is None:  # a record fails: read each alone, to warn of each bad one
                read = [self._read(view[a:b], keys[i], requests[i][0], paths[i])
                        for i, (a, b) in spans.items()]
            for i, profile in zip(found, read):
                profiles[i] = profile
        for i, (src, distance) in enumerate(requests):
            if profiles[i] is None:
                profiles[i] = propagate_profile(src, distance, disk_hint)
                self._write_atomic(paths[i], serialize_profile(profiles[i]))
        return profiles

    @staticmethod
    def _read(blob, key: tuple, src: SourceAnnulus, path: str) -> FieldProfile | None:
        """The profile of one record, or None, with a warning, if it is not
        readable or not the record of ``key``."""
        name = os.path.basename(path)
        try:
            profile = deserialize_profile(blob, key, src)
        except ValueError as exc:
            log.warning("cache entry %s unreadable (%s); recomputing", name, exc)
            return None
        if profile is None:
            log.warning("cache entry %s does not match its key; recomputing", name)
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
