"""Versioned on-disk format for RR sketches (``.npz``).

A *sketch file* is one uncompressed ``.npz`` archive holding the five packed
arrays of a :class:`~repro.rrset.flat_collection.FlatRRCollection` —
``ptr`` / ``nodes`` / ``roots`` / ``widths`` / ``costs`` — plus a
``meta_json`` byte array with the sampler provenance:

* ``format_version`` — bumped on any layout change; mismatches raise
  :class:`SketchVersionError` instead of misreading bytes,
* ``num_nodes`` / ``graph_edges`` — the node universe and ``m`` the
  estimators divide by,
* ``graph_fingerprint`` — :func:`repro.graphs.fingerprint.graph_fingerprint`
  of the sampled graph; :func:`load_sketch` refuses a mismatched graph
  (:class:`SketchGraphMismatchError`), because RR sets are only meaningful
  against the exact graph they were drawn from,
* sampler metadata: ``model``, ``theta`` (the sketch size, i.e. the
  ε-equivalent sample count), ``rng_seed``, and the latest pricing that
  :func:`repro.core.pricing.price` records: ``algorithm`` / ``k`` /
  ``ell`` with its lower bound (``kpt_star``, ``kpt_plus`` or
  ``imm_lower_bound``) and the tightest ``epsilon`` the sketch meets.

Two load paths:

* **eager** (default) — ``np.load`` copies the arrays into fresh memory;
* **mmap** (``mmap=True``) — because ``np.savez`` stores members
  uncompressed (``ZIP_STORED``), each ``.npy`` member is a contiguous run
  of bytes inside the archive.  We locate each member's data offset from
  its zip local-file header, parse the ``.npy`` header in place, and hand
  back ``np.memmap`` views — so any number of service processes share one
  page-cache copy of a multi-gigabyte sketch.  ``np.load``'s own
  ``mmap_mode`` is silently ignored for ``.npz`` archives, hence the manual
  offset arithmetic.

Roundtrips are bit-exact: array dtypes and contents are preserved, so
``nbytes`` and every estimator agree before and after a save/load cycle.

Writes are **crash-safe**: :func:`save_sketch` writes to a same-directory
temp file, fsyncs it, and atomically renames over the target — a
process killed mid-write leaves the previous sketch intact.  The metadata
carries a ``payload_sha256`` checksum over the packed arrays;
:func:`load_sketch` verifies it and **quarantines** a corrupt file (renames
it to ``<path>.quarantined``) so a rebuild can recover the path without an
operator deleting bytes by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zipfile
from typing import Any, Iterable

import numpy as np

from repro.faults import injection as faults
from repro.rrset.flat_collection import FlatRRCollection

__all__ = [
    "SKETCH_FORMAT_VERSION",
    "SketchFileError",
    "SketchVersionError",
    "SketchGraphMismatchError",
    "SketchCorruptionError",
    "save_sketch",
    "load_sketch",
    "read_sketch_meta",
]

#: Current on-disk format version; bump on any incompatible layout change.
#: (Edge traces were added as *optional* members — old readers ignore the
#: extra arrays and old files simply load without traces — so the version
#: stays at 1.)
SKETCH_FORMAT_VERSION = 1

_ARRAY_KEYS = ("ptr", "nodes", "roots", "widths", "costs")
_TRACE_KEYS = ("trace_ptr", "trace_edges")

#: Everything the zip/npy parsing stack is known to raise on damaged bytes.
#: Truncation surfaces as EOFError (np.load's magic read) or OSError;
#: bit-flipped framing as BadZipFile, ValueError, struct.error (a subclass
#: of ValueError is NOT guaranteed — it aliases to Exception-level
#: struct.error), or NotImplementedError (zipfile on bogus version /
#: flag / compression fields).
_READ_ERRORS = (
    zipfile.BadZipFile,
    zipfile.LargeZipFile,
    OSError,
    ValueError,
    EOFError,
    NotImplementedError,
    struct.error,
    IndexError,
)


class SketchFileError(ValueError):
    """The file is not a readable sketch (corrupt, truncated, wrong schema)."""

    #: Whether :func:`load_sketch` may move the file aside on this failure.
    #: ``False`` for errors where the file itself is intact (e.g. a
    #: compressed archive the mmap path cannot serve but eager load can).
    quarantinable: bool = True


class SketchVersionError(SketchFileError):
    """The sketch was written by an incompatible format version."""


class SketchGraphMismatchError(SketchFileError):
    """The sketch's recorded graph fingerprint does not match the graph."""


class SketchCorruptionError(SketchFileError):
    """The sketch's payload bytes do not match the recorded checksum."""


def _payload_checksum(arrays: "dict[str, np.ndarray[Any, Any]]") -> str:
    """SHA-256 over the packed array payloads (keys sorted for stability).

    Covers dtype, shape, and raw bytes of every array, so a single flipped
    payload bit — or a wrong-length truncation that still parses as a zip —
    fails verification.  The metadata block is *not* covered (the checksum
    lives inside it); metadata framing damage is caught by the JSON/schema
    checks instead.
    """
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(array.dtype.str.encode("utf-8"))
        digest.update(repr(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def _fsync_dir(directory: str) -> None:
    """Flush a directory entry so an atomic rename survives power loss."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories; best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save_sketch(path: "str | os.PathLike[str]", collection: FlatRRCollection,
                meta: "dict[str, Any]") -> None:
    """Write ``collection`` plus ``meta`` as a versioned ``.npz`` sketch.

    Reserved keys (``format_version``, ``num_nodes``, ``graph_edges``,
    ``num_sets``) are stamped from the collection and must not be supplied
    with conflicting values in ``meta``.

    The write is atomic: bytes land in ``<path>.tmp`` (same directory, so
    the rename cannot cross filesystems), are ``fsync``\\ ed, and replace
    ``path`` in one ``os.replace``.  A crash at any point leaves either the
    old sketch or no sketch — never a torn file at ``path``.
    """
    full_meta: dict[str, Any] = dict(meta)
    stamped: dict[str, Any] = {
        "format_version": SKETCH_FORMAT_VERSION,
        "num_nodes": collection.num_nodes,
        "graph_edges": collection.graph_edges,
        "num_sets": len(collection),
        "has_traces": collection.has_traces,
    }
    for key, value in stamped.items():
        if key in full_meta and full_meta[key] != value:
            raise ValueError(
                f"meta key {key!r} conflicts with the collection ({full_meta[key]!r} != {value!r})"
            )
        full_meta[key] = value
    arrays: dict[str, np.ndarray[Any, Any]] = {
        "ptr": collection.ptr_array,
        "nodes": collection.nodes_array,
        "roots": collection.roots_array,
        "widths": collection.widths_array,
        "costs": collection.costs_array,
    }
    if collection.has_traces:
        arrays["trace_ptr"] = collection.trace_ptr_array
        arrays["trace_edges"] = collection.trace_edges_array
    # Stamped unconditionally (outside the conflict loop): a re-save of
    # meta recovered from an older file must replace, not preserve, the
    # previous checksum.
    full_meta["payload_sha256"] = _payload_checksum(arrays)
    meta_bytes = np.frombuffer(
        json.dumps(full_meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    rule = faults.checkpoint("sketch.save")
    target = os.fspath(path)
    tmp_path = target + ".tmp"
    try:
        # np.savez (not savez_compressed): ZIP_STORED members are what makes
        # the mmap load path possible.  Writing through an open handle keeps
        # the exact temp path — np.savez(tmp_path, ...) would silently
        # append ".npz" and strand the file somewhere we never rename from.
        with open(tmp_path, "wb") as handle:
            np.savez(handle, meta_json=meta_bytes, **arrays)
            if rule is not None and rule.truncate_at is not None:
                handle.truncate(rule.truncate_at)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_dir(os.path.dirname(target))


def read_sketch_meta(path: "str | os.PathLike[str]") -> "dict[str, Any]":
    """Parse and validate only the metadata block of a sketch file."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "meta_json" not in data.files:
                raise SketchFileError(f"{path}: missing meta_json — not a sketch file")
            raw = bytes(np.asarray(data["meta_json"], dtype=np.uint8))
    except _READ_ERRORS as exc:
        if isinstance(exc, SketchFileError):
            raise
        raise SketchFileError(f"{path}: unreadable sketch archive ({exc})") from exc
    try:
        meta: Any = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SketchFileError(f"{path}: corrupt sketch metadata ({exc})") from exc
    if not isinstance(meta, dict):
        raise SketchFileError(f"{path}: sketch metadata is not an object")
    version = meta.get("format_version")
    if version != SKETCH_FORMAT_VERSION:
        raise SketchVersionError(
            f"{path}: sketch format version {version!r} is not supported "
            f"(this build reads version {SKETCH_FORMAT_VERSION})"
        )
    for key in ("num_nodes", "graph_edges", "num_sets"):
        if not isinstance(meta.get(key), int):
            raise SketchFileError(f"{path}: sketch metadata missing integer {key!r}")
    return dict(meta)


def _quarantine(path: "str | os.PathLike[str]") -> str | None:
    """Move a corrupt sketch aside; its new path, or ``None`` on failure."""
    target = os.fspath(path)
    aside = target + ".quarantined"
    try:
        os.replace(target, aside)
    except OSError:
        return None
    return aside


def load_sketch(
    path: "str | os.PathLike[str]",
    mmap: bool = False,
    expected_fingerprint: str | None = None,
    *,
    verify: bool = True,
    quarantine: bool = True,
) -> "tuple[FlatRRCollection, dict[str, Any]]":
    """Load a sketch file; returns ``(collection, metadata)``.

    Parameters
    ----------
    mmap:
        Memory-map the packed arrays read-only instead of copying them.
    expected_fingerprint:
        When given, the sketch's recorded ``graph_fingerprint`` must match
        exactly; a stale or wrong-graph sketch raises
        :class:`SketchGraphMismatchError`.
    verify:
        Check the recorded ``payload_sha256`` checksum against the loaded
        arrays (files written before checksums carry none and skip the
        check); a mismatch raises :class:`SketchCorruptionError`.
    quarantine:
        On a corruption-class failure (*not* a version or graph mismatch —
        those files are intact, just wrong), rename the file to
        ``<path>.quarantined`` before re-raising, so the caller can rebuild
        at ``path`` immediately.  The re-raised error carries the new
        location in its message and ``quarantined_path`` attribute.
    """
    try:
        return _load_sketch_inner(path, mmap, expected_fingerprint, verify)
    except (SketchVersionError, SketchGraphMismatchError):
        raise  # intact file, wrong version/graph: never quarantined
    except SketchFileError as exc:
        if not quarantine or not exc.quarantinable:
            raise
        aside = _quarantine(path)
        if aside is None:
            raise
        wrapped = type(exc)(f"{exc} (quarantined to {aside})")
        wrapped.quarantined_path = aside  # type: ignore[attr-defined]
        raise wrapped from exc


def _load_sketch_inner(
    path: "str | os.PathLike[str]", mmap: bool,
    expected_fingerprint: str | None, verify: bool,
) -> "tuple[FlatRRCollection, dict[str, Any]]":
    faults.checkpoint("sketch.load")
    meta = read_sketch_meta(path)
    if expected_fingerprint is not None:
        recorded = meta.get("graph_fingerprint")
        if recorded != expected_fingerprint:
            raise SketchGraphMismatchError(
                f"{path}: sketch was built for graph {recorded!r}, "
                f"not the given graph {expected_fingerprint!r}; rebuild the sketch"
            )
    keys = _ARRAY_KEYS + _TRACE_KEYS if meta.get("has_traces") else _ARRAY_KEYS
    try:
        if mmap:
            arrays = _mmap_npz_members(path, keys)
        else:
            with np.load(path, allow_pickle=False) as data:
                missing = [key for key in keys if key not in data.files]
                if missing:
                    raise SketchFileError(f"{path}: sketch archive missing arrays {missing}")
                arrays = {key: data[key] for key in keys}
    except _READ_ERRORS as exc:
        if isinstance(exc, SketchFileError):
            raise
        raise SketchFileError(f"{path}: unreadable sketch archive ({exc})") from exc
    recorded_sha = meta.get("payload_sha256")
    if verify and isinstance(recorded_sha, str):
        actual_sha = _payload_checksum(arrays)
        if actual_sha != recorded_sha:
            raise SketchCorruptionError(
                f"{path}: sketch payload checksum mismatch "
                f"(recorded {recorded_sha[:12]}…, got {actual_sha[:12]}…); "
                "the file is corrupt"
            )
    try:
        collection = FlatRRCollection.from_arrays(
            num_nodes=meta["num_nodes"],
            graph_edges=meta["graph_edges"],
            ptr=arrays["ptr"],
            nodes=arrays["nodes"],
            roots=arrays["roots"],
            widths=arrays["widths"],
            costs=arrays["costs"],
            trace_ptr=arrays.get("trace_ptr"),
            trace_edges=arrays.get("trace_edges"),
        )
    except ValueError as exc:
        raise SketchFileError(f"{path}: inconsistent sketch arrays ({exc})") from exc
    if len(collection) != meta["num_sets"]:
        raise SketchFileError(
            f"{path}: metadata records {meta['num_sets']} sets "
            f"but arrays hold {len(collection)}"
        )
    return collection, meta


# ----------------------------------------------------------------------
# Zero-copy .npz member mapping
# ----------------------------------------------------------------------
def _mmap_npz_members(path: "str | os.PathLike[str]",
                      names: Iterable[str]) -> "dict[str, np.ndarray[Any, Any]]":
    """Memory-map the named ``.npy`` members of an uncompressed ``.npz``.

    For each member: read its zip *local* file header (the central
    directory's name/extra lengths can differ from the local ones, so the
    data offset must come from the local header), then parse the ``.npy``
    header at that offset to learn dtype/shape/order, and finally map the
    raw array bytes with ``np.memmap(..., mode="r")``.
    """
    out: dict[str, np.ndarray[Any, Any]] = {}
    with zipfile.ZipFile(path) as archive:
        for name in names:
            member = name + ".npy"
            try:
                info = archive.getinfo(member)
            except KeyError:
                raise SketchFileError(f"{path}: sketch archive missing arrays ['{name}']")
            if info.compress_type != zipfile.ZIP_STORED:
                error = SketchFileError(
                    f"{path}: member {member} is compressed; mmap load needs "
                    "an uncompressed archive (np.savez, not savez_compressed)"
                )
                error.quarantinable = False  # intact file; eager load works
                raise error
            with open(path, "rb") as handle:
                handle.seek(info.header_offset)
                local_header = handle.read(30)
                if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
                    raise SketchFileError(f"{path}: corrupt zip local header for {member}")
                name_len, extra_len = struct.unpack("<HH", local_header[26:30])
                handle.seek(info.header_offset + 30 + name_len + extra_len)
                data_start = handle.tell()
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
                else:
                    raise SketchFileError(
                        f"{path}: {member} uses unsupported .npy version {version}"
                    )
                payload_offset = handle.tell()
            expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            if payload_offset - data_start + expected > info.file_size:
                raise SketchFileError(f"{path}: truncated array payload for {member}")
            out[name] = np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=payload_offset,
                shape=shape,
                order="F" if fortran else "C",
            )
    return out
