"""Scatter/gather payload references: zero-copy plumbing for the data path.

The paper's argument is that copies are what kill in-kernel data paths.
The simulator models that argument faithfully in *simulated time* (every
modeled copy charges CPU nanoseconds through :meth:`repro.hw.cpu.Cpu.
copy`), but until this module existed it also paid the copies *for
real*: every hop of the data path materialized a fresh Python ``bytes``
object — gather-join on send, ``bytes(view)`` casts on scatter,
read-then-rewrite staging in every relay.  A :class:`PayloadRef` is the
cure: an immutable, ordered list of ``memoryview`` spans over page
frames that flows from the sender's source pages through the NIC, the
wire, and the receiver's scatter without ever being joined.  Bytes are
materialized (:meth:`PayloadRef.tobytes`) only at true sinks.

The cardinal rule of the whole refactor: **model costs are charged, host
copies are not.**  Nothing in this module touches ``cpu.copy`` or any
other simulated-time charge; it only changes what the host Python
process does, so every figure stays byte-identical.

Two support facilities live here because every layer needs them:

* :data:`HOST_COPIES` — a global accounting hook counting *real* host
  byte-copies (frame reads/writes, joins, casts, COW detaches).  The
  data-path benchmark reads it to prove the copies are gone, and CI
  pins a per-byte budget on it (deterministic, unlike wall-clock).
* ``set_materialize(True)`` — a legacy mode in which every payload
  builder eagerly snapshots to ``bytes`` and every scatter re-casts,
  reproducing (and counting) the pre-PayloadRef behaviour.  The
  benchmark runs both modes over the same traffic for an honest A/B;
  simulated time is identical in both.

In-flight safety: a view taken from a :class:`repro.mem.phys.Frame`
marks the frame *shared*; the frame's next write detaches its storage
first (copy-on-write), so a sender recycling its transmit buffer can
never corrupt a payload still on the simulated wire.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence
from zlib import crc32

from ..obs import registry as obs_registry


class CopyAccounting:
    """Counts real host byte-copies performed by the simulator.

    ``copies`` is the number of copy operations, ``nbytes`` the bytes
    they moved.  Purely observational: nothing in the model reads it.
    """

    __slots__ = ("copies", "nbytes")

    def __init__(self) -> None:
        self.copies = 0
        self.nbytes = 0

    def count(self, nbytes: int) -> None:
        if nbytes > 0:
            self.copies += 1
            self.nbytes += nbytes

    def reset(self) -> None:
        self.copies = 0
        self.nbytes = 0

    def snapshot(self) -> dict:
        return {"copies": self.copies, "nbytes": self.nbytes}


#: The global copy-accounting hook (see module docstring).
HOST_COPIES = CopyAccounting()


def _collect_host_copies(registry) -> None:
    """Publish :data:`HOST_COPIES` into a metrics registry at snapshot
    time.  Pull-style on purpose: the counting hot path stays two plain
    integer adds (repro.mem.phys inlines them), and the perf-smoke CI
    gate keeps reading the exact same numbers through the global."""
    registry.gauge("mem.host_copies.ops").set(HOST_COPIES.copies)
    registry.gauge("mem.host_copies.bytes").set(HOST_COPIES.nbytes)


obs_registry.register_collector(_collect_host_copies)

_materialize = False


def set_materialize(on: bool) -> None:
    """Switch the legacy bounce-buffer emulation on or off (bench A/B)."""
    global _materialize
    _materialize = bool(on)


def materialize_enabled() -> bool:
    return _materialize


def seal(ref: "PayloadRef") -> "PayloadRef":
    """Finish a payload builder.

    In normal operation this is the identity.  In legacy/materialize
    mode it eagerly snapshots the views to one ``bytes`` object — the
    gather-join every builder used to perform — and counts the copy.
    """
    if _materialize and ref.length:
        return PayloadRef.from_bytes(ref.tobytes())
    return ref


def write_chunks(ref: "PayloadRef") -> Iterator["bytes | memoryview"]:
    """Iterate a payload's chunks for a scatter-side consumer.

    In legacy/materialize mode each chunk is re-cast to ``bytes`` first
    (and counted) — the ``bytes(view[:chunk])`` every scatter loop used
    to do before handing data to ``write_phys``/``frame.write``.
    """
    if _materialize:
        for chunk in ref.chunks():
            HOST_COPIES.count(len(chunk))
            yield bytes(chunk)
    else:
        yield from ref.chunks()


def _as_chunks(obj) -> "tuple":
    """Normalize any bytes-like or PayloadRef into a chunk tuple."""
    if isinstance(obj, PayloadRef):
        return obj._chunks
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return (obj,) if len(obj) else ()
    raise TypeError(f"cannot compare PayloadRef with {type(obj).__name__}")


class PayloadRef:
    """An immutable scatter/gather reference to payload bytes.

    Holds an ordered tuple of non-empty chunk spans (``bytes`` or
    read-only ``memoryview`` objects over page frames).  All slicing and
    concatenation is zero-copy; :meth:`tobytes` is the only materializer
    and is meant for true sinks (file stores, trace renderers, tests).

    Compares equal to any bytes-like with the same content, so code and
    tests that did ``completion.data == b"hello"`` keep working.
    """

    __slots__ = ("_chunks", "length")

    def __init__(self, chunks: Sequence = (), _trusted: bool = False):
        if _trusted:
            self._chunks = tuple(chunks)
        else:
            self._chunks = tuple(c for c in chunks if len(c))
        self.length = sum(len(c) for c in self._chunks)

    # -- builders ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "PayloadRef":
        return _EMPTY

    @classmethod
    def from_bytes(cls, data: "bytes | bytearray | memoryview") -> "PayloadRef":
        """Wrap an existing bytes-like (no copy)."""
        if not len(data):
            return _EMPTY
        return cls((data,), _trusted=True)

    @classmethod
    def from_chunks(cls, chunks: Iterable) -> "PayloadRef":
        """Build from an iterable of chunk spans (empties dropped)."""
        return cls(tuple(chunks))

    @classmethod
    def from_phys(cls, phys, sg) -> "PayloadRef":
        """Gather a physical scatter/gather list into chunk views.

        ``sg`` is any iterable of segments with ``phys_addr``/``length``
        (duck-typed to avoid importing :mod:`repro.mem.layout`).  This is
        what a DMA gather engine reads — views are taken *now*, so later
        writes to the source frames do not alter the payload (the frames
        detach copy-on-write).
        """
        chunks: list = []
        for seg in sg:
            if seg.length:
                chunks.extend(phys.read_phys_view(seg.phys_addr, seg.length))
        return seal(cls(tuple(chunks), _trusted=True))

    @classmethod
    def concat(cls, parts: Iterable["PayloadRef"]) -> "PayloadRef":
        """Concatenate payloads (zero-copy; chunk lists are spliced)."""
        chunks: list = []
        for part in parts:
            chunks.extend(part._chunks)
        if not chunks:
            return _EMPTY
        return cls(tuple(chunks), _trusted=True)

    # -- zero-copy access -------------------------------------------------

    def chunks(self) -> "tuple":
        """The underlying chunk spans, in payload order."""
        return self._chunks

    def slice(self, start: int, length: Optional[int] = None) -> "PayloadRef":
        """Zero-copy sub-range ``[start, start+length)``, clamped to the
        payload like bytes slicing (``length=None`` means to the end)."""
        if start < 0:
            raise ValueError(f"negative slice start {start}")
        start = min(start, self.length)
        end = self.length if length is None else min(start + max(0, length), self.length)
        if start == 0 and end == self.length:
            return self
        if start >= end:
            return _EMPTY
        out: list = []
        pos = 0
        for chunk in self._chunks:
            clen = len(chunk)
            if pos + clen <= start:
                pos += clen
                continue
            lo = max(0, start - pos)
            hi = min(clen, end - pos)
            if lo == 0 and hi == clen:
                out.append(chunk)
            else:
                view = chunk if isinstance(chunk, memoryview) else memoryview(chunk)
                out.append(view[lo:hi])
            pos += clen
            if pos >= end:
                break
        return PayloadRef(tuple(out), _trusted=True)

    # -- sinks ------------------------------------------------------------

    def tobytes(self) -> bytes:
        """Materialize to one ``bytes`` object (a real, counted copy —
        call this only at true sinks)."""
        if not self._chunks:
            return b""
        if len(self._chunks) == 1 and type(self._chunks[0]) is bytes:
            return self._chunks[0]  # already materialized; no copy
        HOST_COPIES.count(self.length)
        return b"".join(bytes(c) for c in self._chunks)

    def checksum(self) -> int:
        """CRC32 over the content without joining (fault layer, tests)."""
        crc = 0
        for chunk in self._chunks:
            crc = crc32(chunk, crc)
        return crc & 0xFFFFFFFF

    # -- bytes-like protocol ----------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __bytes__(self) -> bytes:
        return self.tobytes()

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.length)
            if step != 1:
                raise ValueError("PayloadRef slices must have step 1")
            return self.slice(start, stop - start)
        if key < 0:
            key += self.length
        if not 0 <= key < self.length:
            raise IndexError("PayloadRef index out of range")
        pos = 0
        for chunk in self._chunks:
            if key < pos + len(chunk):
                return chunk[key - pos]
            pos += len(chunk)
        raise IndexError("PayloadRef index out of range")  # pragma: no cover

    def __eq__(self, other) -> bool:
        try:
            other_chunks = _as_chunks(other)
        except TypeError:
            return NotImplemented
        if isinstance(other, PayloadRef) and other.length != self.length:
            return False
        return _chunks_equal(self._chunks, other_chunks)

    def __repr__(self) -> str:
        return f"PayloadRef(length={self.length}, chunks={len(self._chunks)})"


def _chunks_equal(a: Sequence, b: Sequence) -> bool:
    """Compare two chunk streams byte-wise without joining either."""
    ai, bi = iter(a), iter(b)
    av = memoryview(next(ai, b""))
    bv = memoryview(next(bi, b""))
    while True:
        if not len(av):
            nxt = next(ai, None)
            if nxt is None:
                break
            av = memoryview(nxt)
            continue
        if not len(bv):
            nxt = next(bi, None)
            if nxt is None:
                break
            bv = memoryview(nxt)
            continue
        n = min(len(av), len(bv))
        if av[:n] != bv[:n]:
            return False
        av = av[n:]
        bv = bv[n:]
    # equal iff both streams exhausted with no residue
    if len(av):
        return False
    if len(bv) or next(bi, None) is not None:
        return False
    return next(ai, None) is None


_EMPTY = PayloadRef((), _trusted=True)
