"""Kernel plane: one kernel image in a file, many worker processes.

The distributed pipeline's unit of dispatch is an s-block, but every block
needs the *same* read-only input: the kernel's image
(:attr:`SMPKernel.csr <repro.smp.kernel.SMPKernel.csr>`, the five arrays every
solver reads, and from which a worker derives whatever else it solves with).
Pickling it into each worker would copy a 5.9M-edge kernel once per
process — the scalar-era behaviour this module removes.

A :class:`KernelPlane` writes the arrays once into a single CRC-checked file —
under a :class:`PlaneStore` directory such as ``<checkpoint>/planes``, or a
pool's private temporary directory — and hands out a tiny picklable
:class:`PlaneHandle`, the file's path.  ``handle.attach()`` maps the file
read-only and reconstructs a fully functional
:class:`~repro.smp.kernel.SMPKernel` / :class:`~repro.smp.kernel.UEvaluator`
whose arrays are zero-copy views straight into
the mapping: attaching costs one header unpickle and one checksum pass, and N
workers share one physical copy of the kernel through the page cache.

Layout::

    magic  "SMPPLANE1"
    u64    header length (little endian)
    bytes  pickled header {n_states, digest, distributions, arrays, payload_bytes, crc32}
    ...    64-byte-aligned array payload (offsets recorded in the header)

Only the distribution objects travel through pickle — a handful of small
parameter holders — never the edge arrays.
"""
from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import faults
from ..obs.metrics import note_corrupt_artifact
from .kernel import KernelCSR, SMPKernel, UEvaluator, kernel_content_digest

__all__ = [
    "KernelPlane",
    "PlaneHandle",
    "PlaneIntegrityError",
    "AttachedPlane",
    "PlaneStore",
]


class PlaneIntegrityError(ValueError):
    """A plane's payload does not match the checksum recorded in its header."""

_MAGIC = b"SMPPLANE1"
_ALIGN = 64

def _align_up(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _plan(evaluator: UEvaluator):
    """Lay the arrays out and pickle the header; returns everything build needs."""
    csr = evaluator.kernel.csr
    arrays = {
        name: np.ascontiguousarray(a)
        for name, a in (
            ("indptr", csr.indptr),
            ("indices", csr.indices),
            ("csr_probs", csr.probs),
            ("csr_dist_index", csr.dist_index),
            ("csr_rows", csr.rows),
        )
    }
    entries = []
    offset = 0
    crc = 0
    for name, a in arrays.items():
        offset = _align_up(offset)
        entries.append((name, a.dtype.str, a.shape, offset))
        offset += a.nbytes
        crc = zlib.crc32(a.data, crc)
    header = {
        "n_states": evaluator.kernel.n_states,
        "digest": kernel_content_digest(evaluator.kernel),
        "distributions": evaluator.kernel.distributions,
        "arrays": entries,
        "payload_bytes": offset,
        # CRC32 over the array bytes in layout order (alignment gaps are not
        # covered — they are never read); verified on every attach.
        "crc32": crc,
    }
    header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    payload_start = _align_up(len(_MAGIC) + 8 + len(header_bytes))
    total = payload_start + offset
    return arrays, entries, header_bytes, payload_start, total


def _write_into(buf, arrays, entries, header_bytes, payload_start) -> None:
    """Fill ``buf`` with the plane image.

    All numpy views over ``buf`` are local to this function so the caller
    can close the mapping afterwards without dangling exports.
    """
    buf[: len(_MAGIC)] = _MAGIC
    struct.pack_into("<Q", buf, len(_MAGIC), len(header_bytes))
    start = len(_MAGIC) + 8
    buf[start : start + len(header_bytes)] = header_bytes
    for (name, dtype, shape, offset), a in zip(entries, arrays.values()):
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf,
                          offset=payload_start + offset)
        view[...] = a
        del view


def _read_header(buf) -> tuple[dict, int]:
    if bytes(buf[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a kernel plane (bad magic)")
    (header_len,) = struct.unpack_from("<Q", buf, len(_MAGIC))
    start = len(_MAGIC) + 8
    header = pickle.loads(bytes(buf[start : start + header_len]))
    return header, _align_up(start + header_len)


def _verify_payload(buf, header: dict, payload_start: int) -> None:
    """Check the payload CRC recorded at build time (pre-checksum planes pass)."""
    expected = header.get("crc32")
    if expected is None:
        return
    crc = 0
    for _, dtype, shape, offset in header["arrays"]:
        nbytes = int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))
        start = payload_start + offset
        crc = zlib.crc32(buf[start : start + nbytes], crc)
    if crc != expected:
        raise PlaneIntegrityError(
            f"kernel plane payload checksum mismatch for digest "
            f"{header.get('digest', '?')[:12]} (stored {expected:#010x}, "
            f"computed {crc:#010x})"
        )


def _map_verified(path):
    """Map a plane file read-only, checked: ``(buf, mapping, header, payload_start)``."""
    with open(path, "rb") as f:
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    buf = memoryview(mapped)
    try:
        header, payload_start = _read_header(buf)
        _verify_payload(buf, header, payload_start)
    except BaseException:
        buf.release()
        mapped.close()
        raise
    return buf, mapped, header, payload_start


class AttachedPlane:
    """A kernel plane mapped into this process: views + reconstructed objects.

    ``kernel`` / ``evaluator`` are ordinary :class:`SMPKernel` /
    :class:`UEvaluator` objects whose arrays alias the plane buffer
    (``OWNDATA`` is false on every one of them).  Keep the object alive for
    as long as the evaluator is in use — it owns the mapping.
    """

    def __init__(self, buf, owner, header: dict, payload_start: int):
        self._owner = owner  # the mmap keeping the buffer alive
        self._buf = buf
        self.digest: str = header["digest"]
        self.arrays: dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in header["arrays"]:
            self.arrays[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=buf,
                offset=payload_start + offset,
            )
        v = self.arrays
        self.kernel = SMPKernel._from_csr(
            header["n_states"],
            KernelCSR(v["indptr"], v["indices"], v["csr_rows"], v["csr_probs"],
                      v["csr_dist_index"]),
            header["distributions"], content_digest=self.digest,
        )
        self.evaluator = self.kernel.evaluator()

    def close(self) -> None:
        """Drop the views and release the mapping (best effort).

        A worker that holds live evaluator references cannot fully release
        the mapping (numpy exports pin it); process exit reclaims it
        regardless, so ``BufferError`` here is ignored.
        """
        self.arrays.clear()
        self.kernel = self.evaluator = None
        self._buf = None
        owner, self._owner = self._owner, None
        if owner is not None:
            try:
                owner.close()
            except BufferError:
                pass


@dataclass(frozen=True)
class PlaneHandle:
    """A picklable reference to a built plane — its file's path, not arrays.

    This is all that ever crosses a process boundary.
    """

    path: str

    def attach(self) -> AttachedPlane:
        faults.fire("plane.attach", path=self.path)
        return AttachedPlane(*_map_verified(self.path))


class KernelPlane:
    """Owner side of a plane: writes the file and controls its lifetime."""

    def __init__(self, path: Path, digest: str, nbytes: int):
        self.path = path
        self.digest = digest
        self.nbytes = nbytes

    @classmethod
    def build(cls, evaluator: UEvaluator, path: str | os.PathLike) -> "KernelPlane":
        """Serialise ``evaluator``'s kernel into the file ``path``.

        The file is written atomically (temp file + rename), so concurrent
        exporters of the same digest are safe.
        """
        arrays, entries, header_bytes, payload_start, total = _plan(evaluator)
        digest = kernel_content_digest(evaluator.kernel)
        faults.fire("plane.export", digest=digest)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".plane.tmp")
        try:
            with os.fdopen(fd, "r+b") as f:
                f.truncate(total)
                mapped = mmap.mmap(f.fileno(), total, access=mmap.ACCESS_WRITE)
                try:
                    _write_into(mapped, arrays, entries, header_bytes, payload_start)
                    faults.corrupt_buffer(
                        "plane.export", mapped, start=payload_start, digest=digest
                    )
                    mapped.flush()
                finally:
                    mapped.close()
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return cls(path, digest, total)

    def handle(self) -> PlaneHandle:
        return PlaneHandle(str(self.path))

    def unlink(self) -> None:
        """Delete the file.  Safe to call more than once."""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)


class PlaneStore:
    """Content-addressed plane files under a directory (``<digest>.csr.plane``).

    `semimarkov serve` exports each registered kernel once, and worker
    processes — including ones started later, or on a checkpoint-sharing
    host — attach by digest.  Export is idempotent and atomic.  Other
    files in the directory — any name but ``*.csr.plane`` — are neither
    read nor touched.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, digest: str) -> Path:
        return self.directory / f"{digest}.csr.plane"

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a failed-integrity plane aside so the digest rebuilds fresh."""
        with contextlib.suppress(OSError):
            os.replace(path, path.with_name(path.name + ".corrupt"))
        note_corrupt_artifact("plane")

    @classmethod
    def _valid(cls, path: Path) -> bool:
        """Integrity-check an existing plane file; quarantines on failure.

        Export idempotence reuses a file that is already on disk, so a
        corrupted plane would otherwise be re-served forever — to the
        exporter *and* to every worker attaching by digest.
        """
        try:
            buf, mapped, _, _ = _map_verified(path)
        except Exception:  # truncated/garbled files fail header or CRC reads
            cls._quarantine(path)
            return False
        buf.release()
        mapped.close()
        return True

    def export(self, evaluator: UEvaluator) -> PlaneHandle:
        path = self.path_for(kernel_content_digest(evaluator.kernel))
        if not path.exists() or not self._valid(path):
            KernelPlane.build(evaluator, path)
        return PlaneHandle(str(path))

    def attach(self, digest: str) -> AttachedPlane:
        path = self.path_for(digest)
        if not path.exists():
            raise FileNotFoundError(f"no plane exported for digest {digest}")
        try:
            return PlaneHandle(str(path)).attach()
        except PlaneIntegrityError:
            self._quarantine(path)
            raise FileNotFoundError(
                f"plane for digest {digest} failed its checksum and was "
                f"quarantined; re-export it"
            ) from None

    def digests(self) -> list[str]:
        return sorted(p.name.split(".")[0] for p in self.directory.glob("*.csr.plane"))

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.directory.glob("*.csr.plane"))
