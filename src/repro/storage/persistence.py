"""Crash-safe save/load of an IQ-tree to a real file on the host.

Version 2 containers (magic ``IQTREE02``) are the format this module
writes.  They are self-verifying: every section carries a CRC32 that
:func:`load_iqtree` checks before parsing a single byte of it, the
coordinate payload is full-precision float64 (a reload is bit-exact
against the saved tree), the partition index is a compact binary
section rather than JSON lists, and saves are atomic -- the container
is written to a temporary file in the same directory, flushed and
fsynced, then renamed over the destination, so a crash mid-save leaves
either the old container or the new one, never a torn hybrid.

Container layout (all integers little-endian)::

    magic         b"IQTREE02"                          8 bytes
    fixed header  <QQQIIII                            40 bytes
        meta_len      u64   length of the meta section
        index_len     u64   length of the index section
        payload_len   u64   length of the payload section
        meta_crc      u32   CRC32 of the meta section
        index_crc     u32   CRC32 of the index section
        payload_crc   u32   CRC32 of the payload section
        header_crc    u32   CRC32 of magic + the 36 bytes above
    meta          JSON (utf-8): dims, metric, disk / cost-model
                  parameters, per-level-file content CRCs
    index         binary partition arrays:
                      n_parts   u32
                      bits      u8  * n_parts
                      counts    u32 * n_parts
                      lowers    f64 * n_parts * dim   (per-page MBR)
                      uppers    f64 * n_parts * dim
                      indices   i64 * sum(counts)
    payload       float64 coordinate array (n * d * 8 bytes)

Any CRC mismatch, truncation, or structural inconsistency raises
:class:`~repro.exceptions.IntegrityError` (a ``StorageError``) naming
the failing section.  ``load_iqtree(path, verify=True)`` additionally
re-serializes the freshly loaded tree and compares it byte-for-byte
against the container -- the strongest possible round-trip check,
covering the re-laid-out level files via their content CRCs.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import IntegrityError, StorageError
from repro.obs.instruments import CONTAINER_OPS, REGISTRY
from repro.core.optimizer import OptimizedPartition
from repro.core.partition import Partition
from repro.core.tree import IQTree
from repro.costmodel.model import CostModel
from repro.geometry.mbr import MBR
from repro.geometry.metrics import get_metric
from repro.storage.disk import DiskModel, SimulatedDisk

__all__ = [
    "save_iqtree",
    "load_iqtree",
    "serialize_iqtree",
    "verify_container",
    "section_spans",
    "FsckReport",
    "SectionStatus",
    "MAGIC_V2",
]

MAGIC_V2 = b"IQTREE02"

#: fixed header after the magic: three section lengths, four CRCs
_V2_HEADER = struct.Struct("<QQQIIII")
#: bytes of magic + fixed header = start of the meta section
_V2_HEADER_END = len(MAGIC_V2) + _V2_HEADER.size

#: container sections in file order (fsck reports them in this order)
SECTIONS = ("header", "meta", "index", "payload")


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# Serialization (v2)
# ----------------------------------------------------------------------
def serialize_iqtree(tree: IQTree) -> bytes:
    """Serialize ``tree`` to a v2 container blob (no file I/O).

    Deterministic: the same tree state always produces the same bytes,
    which is what makes the ``verify=True`` re-serialization check in
    :func:`load_iqtree` byte-exact.
    """
    tree._ensure_clean()
    model = tree.disk.model
    meta = {
        "version": 2,
        "n_points": tree.n_points,
        "dim": tree.dim,
        "metric": tree.metric.name,
        "charge_directory": tree.charge_directory,
        "disk": {
            "t_seek": model.t_seek,
            "t_xfer": model.t_xfer,
            "block_size": model.block_size,
        },
        "cost_model": {
            "fractal_dim": tree.cost_model.fractal_dim,
            "data_space_volume": tree.cost_model.data_space_volume,
            "k": tree.cost_model.k,
        },
        "n_partitions": len(tree._partitions),
        "level_crcs": {
            "directory": tree._dir_file.content_crc32(),
            "quantized": tree._quant_file.content_crc32(),
            "exact": tree._exact_file.content_crc32(),
        },
    }
    # wal_seq: highest journal sequence number folded into this
    # container (see repro.storage.journal).  Written only when nonzero
    # so pre-journal containers re-serialize byte-identically under
    # verify=True.
    if tree._wal_seq:
        meta["wal_seq"] = int(tree._wal_seq)
    # Codec keys follow the same only-when-nonzero convention: a pure
    # grid tree with a dense directory writes none of them, so
    # pre-codec containers re-serialize byte-identically.
    codecs = [
        [int(opt.codec), int(opt.pq_bits), int(opt.pq_sub),
         float(opt.eff_bits)]
        if opt.codec
        else 0
        for opt in tree._partitions
    ]
    if any(codecs):
        meta["codecs"] = codecs
    if tree.directory_codec == "ef":
        meta["directory_codec"] = "ef"
    if tree.codec_mode != "grid":
        meta["codec_mode"] = tree.codec_mode
    meta_bytes = json.dumps(meta).encode("utf-8")
    index_bytes = _encode_index_section(tree)
    payload = np.ascontiguousarray(tree.points, dtype="<f8").tobytes()

    fixed = _V2_HEADER.pack(
        len(meta_bytes),
        len(index_bytes),
        len(payload),
        _crc(meta_bytes),
        _crc(index_bytes),
        _crc(payload),
        0,  # placeholder; header_crc covers everything before itself
    )
    header_crc = _crc(MAGIC_V2 + fixed[:-4])
    fixed = fixed[:-4] + header_crc.to_bytes(4, "little")
    return MAGIC_V2 + fixed + meta_bytes + index_bytes + payload


def _encode_index_section(tree: IQTree) -> bytes:
    n_parts = len(tree._partitions)
    bits = np.empty(n_parts, dtype=np.uint8)
    counts = np.empty(n_parts, dtype="<u4")
    lowers = np.empty((n_parts, tree.dim), dtype="<f8")
    uppers = np.empty((n_parts, tree.dim), dtype="<f8")
    chunks: list[np.ndarray] = []
    for j, opt in enumerate(tree._partitions):
        bits[j] = opt.bits
        counts[j] = opt.partition.size
        lowers[j] = opt.partition.mbr.lower
        uppers[j] = opt.partition.mbr.upper
        chunks.append(opt.partition.indices)
    indices = np.concatenate(chunks).astype("<i8", copy=False)
    return b"".join(
        (
            np.uint32(n_parts).tobytes(),
            bits.tobytes(),
            counts.tobytes(),
            lowers.tobytes(),
            uppers.tobytes(),
            indices.tobytes(),
        )
    )


# ----------------------------------------------------------------------
# Atomic writing
# ----------------------------------------------------------------------
def _atomic_write(path, blob: bytes, *, fsync: bool = True, _writer=None) -> None:
    """Write ``blob`` to ``path`` via temp file + fsync + rename.

    A crash at any point leaves ``path`` either absent/old or fully
    new; a leftover ``<name>.tmp`` next to it is crash debris from an
    interrupted save and is overwritten by the next one.  ``_writer``
    is the fault-injection hook used by
    :func:`repro.storage.faults.torn_save`.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        if _writer is None:
            handle.write(blob)
        else:
            _writer(handle, blob)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        # Make the rename itself durable (best-effort: not every
        # platform/filesystem allows opening a directory).
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)


def save_iqtree(tree: IQTree, path, *, fsync: bool = True) -> None:
    """Atomically serialize ``tree`` (structure + data) to ``path``.

    Writes a v2 container (see the module docstring for the format).
    ``fsync=False`` skips the durability syncs -- faster for tests and
    scratch files, same atomicity against process crashes (but not
    against power loss).
    """
    try:
        _atomic_write(path, serialize_iqtree(tree), fsync=fsync)
    except Exception:
        if REGISTRY.enabled:
            CONTAINER_OPS.inc(op="save", outcome="error")
        raise
    if REGISTRY.enabled:
        CONTAINER_OPS.inc(op="save", outcome="ok")


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load_iqtree(
    path, disk: SimulatedDisk | None = None, *, verify: bool = False
) -> IQTree:
    """Rebuild an IQ-tree saved by :func:`save_iqtree`.

    Every section's CRC32 is checked before it is parsed; corruption
    raises :class:`~repro.exceptions.IntegrityError` naming the failing
    section.  With ``verify=True`` the loaded tree is re-serialized and
    compared byte-for-byte against the container (requires the default
    disk, i.e. ``disk=None``, so the recorded disk parameters match).

    A fresh simulated disk with the saved timing model is created
    unless one is supplied.
    """
    try:
        tree = _load_iqtree(path, disk, verify=verify)
    except IntegrityError:
        if REGISTRY.enabled:
            CONTAINER_OPS.inc(op="load", outcome="corrupt")
        raise
    except Exception:
        if REGISTRY.enabled:
            CONTAINER_OPS.inc(op="load", outcome="error")
        raise
    if REGISTRY.enabled:
        CONTAINER_OPS.inc(op="load", outcome="ok")
    return tree


def _load_iqtree(
    path, disk: SimulatedDisk | None, *, verify: bool
) -> IQTree:
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC_V2)] != MAGIC_V2:
        raise StorageError(f"{path}: not an IQ-tree container")
    if verify and disk is not None:
        raise StorageError(
            "verify=True compares against the recorded disk "
            "parameters; load with disk=None to verify"
        )
    tree = _load_v2(raw, path, disk)
    if verify and serialize_iqtree(tree) != raw:
        raise IntegrityError(
            f"{path}: container does not round-trip: re-serializing "
            "the loaded tree produced different bytes"
        )
    return tree


def _v2_spans(raw: bytes, path) -> dict[str, tuple[int, int]]:
    """Validate the fixed header; return each section's byte span."""
    if len(raw) < _V2_HEADER_END:
        raise IntegrityError(
            f"{path}: truncated header section "
            f"({len(raw)} bytes, need {_V2_HEADER_END})",
            section="header",
        )
    fields = _V2_HEADER.unpack(raw[len(MAGIC_V2) : _V2_HEADER_END])
    meta_len, index_len, payload_len = fields[:3]
    header_crc = fields[6]
    if _crc(raw[: _V2_HEADER_END - 4]) != header_crc:
        raise IntegrityError(
            f"{path}: CRC mismatch in header section", section="header"
        )
    spans: dict[str, tuple[int, int]] = {"header": (0, _V2_HEADER_END)}
    offset = _V2_HEADER_END
    for name, length in (
        ("meta", meta_len),
        ("index", index_len),
        ("payload", payload_len),
    ):
        end = offset + length
        if len(raw) < end:
            raise IntegrityError(
                f"{path}: truncated {name} section "
                f"({len(raw) - offset} of {length} bytes present)",
                section=name,
            )
        spans[name] = (offset, end)
        offset = end
    if len(raw) != offset:
        raise IntegrityError(
            f"{path}: {len(raw) - offset} trailing bytes after the "
            "payload section",
            section="header",
        )
    return spans


def section_spans(raw: bytes) -> dict[str, tuple[int, int]]:
    """Byte span ``(start, stop)`` of each v2 section of ``raw``.

    Used by the fault-injection harness to aim corruption at a specific
    section; only the header must be intact for the spans to resolve.
    """
    return _v2_spans(raw, "<blob>")


def _checked_section(
    raw: bytes, spans: dict, name: str, crc: int, path
) -> bytes:
    data = raw[spans[name][0] : spans[name][1]]
    if _crc(data) != crc:
        raise IntegrityError(
            f"{path}: CRC mismatch in {name} section", section=name
        )
    return data


def _load_v2(raw: bytes, path, disk: SimulatedDisk | None) -> IQTree:
    spans = _v2_spans(raw, path)
    fields = _V2_HEADER.unpack(raw[len(MAGIC_V2) : _V2_HEADER_END])
    meta_crc, index_crc, payload_crc = fields[3:6]

    meta_bytes = _checked_section(raw, spans, "meta", meta_crc, path)
    try:
        meta = json.loads(meta_bytes)
        n = int(meta["n_points"])
        dim = int(meta["dim"])
        n_parts = int(meta["n_partitions"])
        saved_model = DiskModel(**meta["disk"])
        metric = get_metric(meta["metric"])
        cm = meta["cost_model"]
    except (ValueError, KeyError, TypeError, StorageError) as exc:
        raise IntegrityError(
            f"{path}: malformed meta section: {exc}", section="meta"
        ) from exc

    payload = _checked_section(raw, spans, "payload", payload_crc, path)
    if len(payload) != n * dim * 8:
        raise IntegrityError(
            f"{path}: payload section holds {len(payload)} bytes, "
            f"expected {n * dim * 8} for {n} x {dim} float64 points",
            section="payload",
        )
    points = (
        np.frombuffer(payload, dtype="<f8").reshape(n, dim).copy()
    )

    codec_mode = meta.get("codec_mode", "grid")
    directory_codec = meta.get("directory_codec", "dense")
    if codec_mode not in ("grid", "pq", "auto"):
        raise IntegrityError(
            f"{path}: malformed meta section: bad codec_mode "
            f"{codec_mode!r}",
            section="meta",
        )
    if directory_codec not in ("dense", "ef"):
        raise IntegrityError(
            f"{path}: malformed meta section: bad directory_codec "
            f"{directory_codec!r}",
            section="meta",
        )

    index_bytes = _checked_section(raw, spans, "index", index_crc, path)
    solution = _decode_index_section(index_bytes, n_parts, n, dim, points, path)
    if "codecs" in meta:
        solution = _apply_codecs(solution, meta["codecs"], dim, path)

    disk = disk or SimulatedDisk(saved_model)
    if disk.model.block_size != saved_model.block_size:
        raise StorageError(
            "supplied disk's block size differs from the saved layout"
        )
    cost_model = CostModel(
        disk.model,
        dim,
        n,
        fractal_dim=cm["fractal_dim"],
        data_space_volume=cm["data_space_volume"],
        metric=metric,
        k=cm["k"],
    )
    tree = IQTree(
        points,
        solution,
        disk,
        metric,
        cost_model,
        trace=None,
        charge_directory=bool(meta["charge_directory"]),
        codec_mode=codec_mode,
        directory_codec=directory_codec,
    )
    wal_seq = meta.get("wal_seq", 0)
    if not isinstance(wal_seq, int) or wal_seq < 0:
        raise IntegrityError(
            f"{path}: malformed meta section: bad wal_seq {wal_seq!r}",
            section="meta",
        )
    tree._wal_seq = wal_seq
    return tree


def _decode_index_section(
    data: bytes, n_parts: int, n: int, dim: int, points: np.ndarray, path
) -> list[OptimizedPartition]:
    def bad(reason: str) -> IntegrityError:
        return IntegrityError(
            f"{path}: malformed index section: {reason}", section="index"
        )

    if len(data) < 4:
        raise bad("missing partition count")
    declared = int(np.frombuffer(data, dtype="<u4", count=1)[0])
    if declared != n_parts:
        raise bad(
            f"{declared} partitions declared, meta says {n_parts}"
        )
    if n_parts <= 0:
        raise bad("container holds no partitions")
    offset = 4
    fixed = n_parts * (1 + 4 + 16 * dim)
    if len(data) < offset + fixed:
        raise bad("arrays truncated")
    bits = np.frombuffer(data, dtype=np.uint8, count=n_parts, offset=offset)
    offset += n_parts
    counts = np.frombuffer(data, dtype="<u4", count=n_parts, offset=offset)
    offset += 4 * n_parts
    lowers = np.frombuffer(
        data, dtype="<f8", count=n_parts * dim, offset=offset
    ).reshape(n_parts, dim)
    offset += 8 * n_parts * dim
    uppers = np.frombuffer(
        data, dtype="<f8", count=n_parts * dim, offset=offset
    ).reshape(n_parts, dim)
    offset += 8 * n_parts * dim
    total = int(counts.sum())
    if len(data) != offset + 8 * total:
        raise bad("index array length disagrees with partition counts")
    indices = np.frombuffer(data, dtype="<i8", count=total, offset=offset)

    if np.any(bits < 1) or np.any(bits > 32):
        raise bad("bits per dimension out of [1, 32]")
    if np.any(counts < 1):
        raise bad("empty partition")
    if np.any(lowers > uppers):
        raise bad("partition MBR has lower > upper")
    if total > n:
        raise bad("more partition members than points")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise bad("partition index arrays out of range")
    if np.unique(indices).size != total:
        raise bad("partition index arrays overlap")

    solution = []
    start = 0
    for j in range(n_parts):
        stop = start + int(counts[j])
        part = Partition(
            indices[start:stop].copy(), MBR(lowers[j], uppers[j])
        )
        solution.append(OptimizedPartition(part, int(bits[j])))
        start = stop
    return solution


def _apply_codecs(
    solution: list[OptimizedPartition], codecs, dim: int, path
) -> list[OptimizedPartition]:
    """Attach the meta section's per-page codec tags to the solution."""
    from dataclasses import replace

    from repro.quantization.codecs import CODEC_PQ

    def bad(reason: str) -> IntegrityError:
        return IntegrityError(
            f"{path}: malformed meta section: {reason}", section="meta"
        )

    if not isinstance(codecs, list) or len(codecs) != len(solution):
        raise bad("codecs list length disagrees with partition count")
    out: list[OptimizedPartition] = []
    for j, (opt, entry) in enumerate(zip(solution, codecs)):
        if entry == 0:
            out.append(opt)
            continue
        if (
            not isinstance(entry, list)
            or len(entry) != 4
            or entry[0] != CODEC_PQ
            or not isinstance(entry[1], int)
            or not 1 <= entry[1] <= 16
            or not isinstance(entry[2], int)
            or not 1 <= entry[2] <= dim
            or not isinstance(entry[3], (int, float))
            or not 1.0 <= float(entry[3]) < 32.0
        ):
            raise bad(f"bad codec entry for page {j}: {entry!r}")
        out.append(
            replace(
                opt,
                codec=CODEC_PQ,
                pq_bits=int(entry[1]),
                pq_sub=int(entry[2]),
                eff_bits=float(entry[3]),
            )
        )
    return out


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
@dataclass
class SectionStatus:
    """Verification outcome of one container section."""

    name: str
    ok: bool
    detail: str


@dataclass
class FsckReport:
    """Per-section verification report of one container file."""

    path: str
    sections: list[SectionStatus]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)

    def summary(self) -> str:
        lines = [f"{self.path}: IQTREE02 container"]
        for s in self.sections:
            mark = "ok " if s.ok else "BAD"
            lines.append(f"  {s.name:<8} {mark}  {s.detail}")
        bad = [s.name for s in self.sections if not s.ok]
        lines.append(
            "status: clean" if not bad else f"status: corrupt ({', '.join(bad)})"
        )
        return "\n".join(lines)


def verify_container(path, expect_codec: str | None = None) -> FsckReport:
    """Verify a container file section by section without loading it.

    Unlike :func:`load_iqtree`, which stops at the first problem, this
    checks every section independently and reports all of them -- the
    engine behind ``python -m repro fsck``.

    ``expect_codec`` (one of ``grid``/``pq``/``ef``/``auto``) adds a
    ``codec`` section asserting the container's declared codec policy
    matches the one the index was supposedly built with, using the same
    mapping as ``IQTree.build(codec=...)``.
    """
    report = _verify_container(path, expect_codec)
    if REGISTRY.enabled:
        outcome = "ok" if report.ok else "corrupt"
        CONTAINER_OPS.inc(op="fsck", outcome=outcome)
    return report


def _codec_expectation_status(
    codec_mode: str, directory_codec: str, expect: str
) -> SectionStatus:
    """One fsck line comparing declared codec meta with an expectation.

    Mirrors the ``IQTree.build`` codec-policy mapping: ``grid`` means
    grid pages over a dense directory, ``pq`` / ``auto`` name the page
    codec mode, and ``ef`` names the directory encoding (its pages stay
    grid).
    """
    matched = {
        "grid": codec_mode == "grid" and directory_codec == "dense",
        "pq": codec_mode == "pq",
        "ef": directory_codec == "ef",
        "auto": codec_mode == "auto",
    }.get(expect)
    if matched is None:
        return SectionStatus(
            "codec", False, f"unknown expectation {expect!r}"
        )
    detail = (
        f"pages={codec_mode} directory={directory_codec} "
        f"(expected {expect})"
    )
    return SectionStatus("codec", matched, detail)


def _verify_container(path, expect_codec: str | None = None) -> FsckReport:
    raw = Path(path).read_bytes()
    sections: list[SectionStatus] = []
    report = FsckReport(str(path), sections)
    if raw[: len(MAGIC_V2)] != MAGIC_V2:
        sections.append(
            SectionStatus("header", False, "not an IQ-tree container")
        )
        return report
    try:
        spans = _v2_spans(raw, path)
    except IntegrityError as exc:
        # Without a trustworthy header no other section can be located.
        sections.append(SectionStatus("header", False, str(exc)))
        for name in SECTIONS[1:]:
            sections.append(
                SectionStatus(name, False, "unverifiable: bad header")
            )
        return report
    sections.append(
        SectionStatus("header", True, f"{_V2_HEADER_END} bytes, CRC ok")
    )
    fields = _V2_HEADER.unpack(raw[len(MAGIC_V2) : _V2_HEADER_END])
    crcs = dict(zip(("meta", "index", "payload"), fields[3:6]))
    for name in ("meta", "index", "payload"):
        start, stop = spans[name]
        data = raw[start:stop]
        if _crc(data) != crcs[name]:
            sections.append(
                SectionStatus(name, False, f"CRC mismatch ({stop - start} bytes)")
            )
        else:
            sections.append(
                SectionStatus(name, True, f"{stop - start} bytes, CRC ok")
            )
    if report.ok:
        # CRCs fine: run the full structural parse too (cheap relative
        # to fsck's purpose, and it catches crafted-but-valid CRCs).
        try:
            _load_v2(raw, path, None)
        except Exception as exc:  # noqa: BLE001
            section = getattr(exc, "section", None) or "index"
            for s in sections:
                if s.name == section:
                    s.ok = False
                    s.detail = f"parse failed: {exc}"
    if expect_codec is not None:
        meta_ok = any(s.name == "meta" and s.ok for s in sections)
        if meta_ok:
            meta = json.loads(raw[slice(*spans["meta"])])
            sections.append(
                _codec_expectation_status(
                    meta.get("codec_mode", "grid"),
                    meta.get("directory_codec", "dense"),
                    expect_codec,
                )
            )
        else:
            sections.append(
                SectionStatus("codec", False, "unverifiable: bad meta")
            )
    return report
