"""User address spaces: VMAs, demand paging, fork/munmap notification.

This models just enough of the Linux mm to support the paper's
arguments:

* ``mmap`` creates a :class:`VMA`; pages are populated on first touch
  (demand paging), so pinning a fresh buffer is more expensive than
  pinning a warm one — exactly the effect GM registration cost depends
  on.
* ``munmap``/``mprotect``/``fork`` fire :class:`AddressSpaceChange`
  notifications to registered listeners.  The kernel's VMA SPY
  (:mod:`repro.kernel.vmaspy`) and through it the registration cache
  (:mod:`repro.gmkrc`) subscribe to these — the paper's central
  coherence mechanism.
* Each space has a small integer ``asid``, numbered per host (by its
  :class:`~repro.mem.phys.PhysicalMemory`).  GM's shared-port trick
  (paper section 3.2: encode an address-space descriptor in the high
  bits of a 64-bit pointer, on a 32-bit host) is implemented over these
  asids in :mod:`repro.gmkrc.spaces`.

Virtual addresses are plain ints; user VAs start at ``USER_BASE`` so
they never collide with kernel VAs (see :mod:`repro.mem.kmem`), making
address-type confusion detectable in tests — the exact failure mode the
MX API's explicit memory types exist to prevent.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from ..errors import BadAddress, ProtectionFault
from ..units import PAGE_MASK, PAGE_SIZE, page_align_up
from .phys import Frame, PhysicalMemory
from .sglist import PayloadRef

USER_BASE = 0x1000_0000  # first user-mappable virtual address
USER_TOP = 0x8000_0000  # 2 GB user space, mirroring 32-bit Linux


class Prot(enum.Flag):
    """VMA protection bits."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    RW = READ | WRITE


class ChangeKind(enum.Enum):
    """Kinds of address-space modification the spy layer can observe."""

    UNMAP = "unmap"
    PROTECT = "protect"
    FORK = "fork"
    EXIT = "exit"


@dataclass(frozen=True)
class AddressSpaceChange:
    """One address-space modification event delivered to listeners."""

    kind: ChangeKind
    space: "AddressSpace"
    start: int
    length: int


#: Protection bits as plain ints, for the per-access check.
_READ = Prot.READ.value
_WRITE = Prot.WRITE.value


@dataclass(frozen=True, slots=True)
class VMA:
    """A virtual memory area: [start, end) with uniform protection.

    Immutable: mprotect/munmap replace VMAs instead of editing them, so
    the sorted start list an address space bisects never goes stale.
    """

    start: int
    end: int
    prot: Prot
    bits: int = field(init=False, repr=False, compare=False)  # prot.value

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", self.prot.value)

    @property
    def length(self) -> int:
        return self.end - self.start


class AddressSpace:
    """One process's virtual address space."""

    def __init__(self, phys: PhysicalMemory):
        self.phys = phys
        self.asid = next(phys.asids)
        self._vmas: list[VMA] = []  # sorted by start, non-overlapping
        self._starts: list[int] = []  # [v.start for v in _vmas], for bisect
        self._pages: dict[int, Frame] = {}  # vpn -> frame
        self._borrowed: set[int] = set()  # vpns mapped over foreign frames
        self._next_mmap = USER_BASE
        self._listeners: list[Callable[[AddressSpaceChange], None]] = []
        self._alive = True

    # -- listeners (substrate for VMA SPY) --------------------------------

    def add_listener(self, fn: Callable[[AddressSpaceChange], None]) -> None:
        """Subscribe to address-space modification notifications."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[AddressSpaceChange], None]) -> None:
        self._listeners.remove(fn)

    def _notify(self, kind: ChangeKind, start: int, length: int) -> None:
        change = AddressSpaceChange(kind, self, start, length)
        for fn in list(self._listeners):
            fn(change)

    # -- mapping ----------------------------------------------------------

    def mmap(self, length: int, prot: Prot = Prot.RW, populate: bool = False) -> int:
        """Create an anonymous mapping; returns its base virtual address.

        ``populate=True`` faults every page in immediately (MAP_POPULATE);
        otherwise pages appear on first access, as under demand paging.
        """
        self._check_alive()
        if length <= 0:
            raise ValueError(f"mmap length must be positive, got {length}")
        length = page_align_up(length)
        start = self._find_region(length)
        self._set_vmas(self._vmas + [VMA(start, start + length, prot)])
        if populate:
            for vpn in range(start >> 12, (start + length) >> 12):
                self._populate(vpn)
        return start

    def map_frames(self, frames: list[Frame], prot: Prot = Prot.RW) -> int:
        """Map existing frames (e.g. page-cache pages) into this space.

        This is the mechanism behind file-backed ``mmap``: the frames
        are *borrowed* — they stay owned (and pinned) by whoever holds
        them, several spaces may map the same frames, and unmapping
        never frees them.  Returns the base virtual address.
        """
        self._check_alive()
        if not frames:
            raise ValueError("map_frames needs at least one frame")
        length = len(frames) * PAGE_SIZE
        start = self._find_region(length)
        self._set_vmas(self._vmas + [VMA(start, start + length, prot)])
        for i, frame in enumerate(frames):
            vpn = (start >> 12) + i
            self._pages[vpn] = frame
            self._borrowed.add(vpn)
        return start

    def munmap(self, start: int, length: int) -> None:
        """Remove mappings covering [start, start+length).

        Notification fires *before* teardown, as mmu-notifier style hooks
        do, so a registration cache can invalidate entries while the
        translation is still identifiable.
        """
        self._check_alive()
        if start & PAGE_MASK:
            raise BadAddress(f"munmap start not page aligned: {start:#x}")
        length = page_align_up(length)
        end = start + length
        self._notify(ChangeKind.UNMAP, start, length)
        new_vmas: list[VMA] = []
        for vma in self._vmas:
            if vma.end <= start or vma.start >= end:
                new_vmas.append(vma)
                continue
            # split around the unmapped hole
            if vma.start < start:
                new_vmas.append(VMA(vma.start, start, vma.prot))
            if vma.end > end:
                new_vmas.append(VMA(end, vma.end, vma.prot))
        self._set_vmas(new_vmas)
        for vpn in range(start >> 12, end >> 12):
            frame = self._pages.pop(vpn, None)
            borrowed = vpn in self._borrowed
            self._borrowed.discard(vpn)
            if frame is not None and not borrowed and not frame.pinned:
                self.phys.free(frame)
            # A pinned frame stays allocated (DMA may be in flight); it is
            # simply no longer reachable from this space — the dangerous
            # situation stale registration-cache entries create.
            # Borrowed frames (file mappings) always stay with their owner.

    def mprotect(self, start: int, length: int, prot: Prot) -> None:
        """Change protection on [start, start+length)."""
        self._check_alive()
        length = page_align_up(length)
        end = start + length
        self._notify(ChangeKind.PROTECT, start, length)
        updated: list[VMA] = []
        for vma in self._vmas:
            if vma.end <= start or vma.start >= end:
                updated.append(vma)
                continue
            if vma.start < start:
                updated.append(VMA(vma.start, start, vma.prot))
            updated.append(VMA(max(vma.start, start), min(vma.end, end), prot))
            if vma.end > end:
                updated.append(VMA(end, vma.end, vma.prot))
        self._set_vmas(updated)

    def fork(self) -> "AddressSpace":
        """Duplicate the space (eager copy, not COW — simpler, and the
        paper's concern is only that fork changes translations).

        The child gets copies of all populated pages in fresh frames; the
        parent's listeners are notified so caches covering the parent can
        react (GM's pin-down caches must flush on fork).
        """
        self._check_alive()
        self._notify(ChangeKind.FORK, USER_BASE, USER_TOP - USER_BASE)
        child = AddressSpace(self.phys)
        child._set_vmas(self._vmas)  # VMAs are immutable: share them
        child._next_mmap = self._next_mmap
        for vpn, frame in self._pages.items():
            if vpn in self._borrowed:
                # shared file mappings stay shared across fork
                child._pages[vpn] = frame
                child._borrowed.add(vpn)
            else:
                new_frame = self.phys.alloc()
                new_frame.write(0, frame.read(0, PAGE_SIZE))
                child._pages[vpn] = new_frame
        return child

    def destroy(self) -> None:
        """Tear down the space (process exit)."""
        if not self._alive:
            return
        self._notify(ChangeKind.EXIT, USER_BASE, USER_TOP - USER_BASE)
        for vpn, frame in self._pages.items():
            if vpn not in self._borrowed and not frame.pinned:
                self.phys.free(frame)
        self._pages.clear()
        self._borrowed.clear()
        self._set_vmas([])
        self._alive = False

    # -- translation / access ---------------------------------------------

    def vma_at(self, addr: int) -> Optional[VMA]:
        """The VMA containing ``addr``, or None."""
        i = bisect_right(self._starts, addr) - 1
        if i >= 0:
            vma = self._vmas[i]
            if addr < vma.end:
                return vma
        return None

    def translate(self, vaddr: int, write: bool = False, fault_in: bool = True) -> int:
        """Translate a virtual address to a physical address.

        ``fault_in=False`` refuses to populate (returns what a hardware
        walk would see) and raises :class:`BadAddress` on a non-present
        page — used to model NIC-side translation, which cannot fault.
        """
        vma = self.vma_at(vaddr)
        if vma is None:
            raise BadAddress(f"unmapped address {vaddr:#x} in asid {self.asid}")
        if not vma.bits & (_WRITE if write else _READ):
            raise ProtectionFault(
                f"{'write' if write else 'read'} to {vaddr:#x} violates {vma.prot}"
            )
        vpn = vaddr >> 12
        frame = self._pages.get(vpn)
        if frame is None:
            if not fault_in:
                raise BadAddress(f"page at {vaddr:#x} not present (no fault allowed)")
            frame = self._populate(vpn)
        return frame.phys_addr | (vaddr & PAGE_MASK)

    def frame_of(self, vaddr: int, fault_in: bool = True) -> Frame:
        """The frame backing the page containing ``vaddr``."""
        phys = self.translate(vaddr, fault_in=fault_in)
        return self.phys.frame_at_phys(phys)

    def page_present(self, vaddr: int) -> bool:
        """True if the page containing ``vaddr`` is populated."""
        return (vaddr >> 12) in self._pages

    def iter_pages(self, vaddr: int, length: int) -> Iterator[int]:
        """Yield the page-base virtual address of each page in a range."""
        if length <= 0:
            return
        addr = vaddr & ~PAGE_MASK
        end = vaddr + length
        while addr < end:
            yield addr
            addr += PAGE_SIZE

    # -- data movement (used by syscalls and CPU copies) --------------------

    def write_bytes(self, vaddr: int, data: bytes) -> None:
        """Store ``data`` at ``vaddr`` (faulting pages in, checking prot)."""
        view = memoryview(data)
        addr = vaddr
        while view:
            phys = self.translate(addr, write=True)
            offset = phys & PAGE_MASK
            chunk = min(len(view), PAGE_SIZE - offset)
            self.phys.write_phys(phys, view[:chunk])
            addr += chunk
            view = view[chunk:]

    def read_bytes(self, vaddr: int, length: int) -> bytes:
        """Load ``length`` bytes from ``vaddr``."""
        out = bytearray()
        addr = vaddr
        remaining = length
        while remaining > 0:
            phys = self.translate(addr, write=False)
            offset = phys & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            out += self.phys.read_phys(phys, chunk)
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def read_payload(self, vaddr: int, length: int) -> PayloadRef:
        """Zero-copy gather of ``length`` bytes at ``vaddr`` into a
        :class:`PayloadRef` of page-span views (pages fault in)."""
        chunks: list = []
        addr = vaddr
        remaining = length
        while remaining > 0:
            phys = self.translate(addr, write=False)
            offset = phys & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            chunks.append(self.phys.frame_at_phys(phys).view(offset, chunk))
            addr += chunk
            remaining -= chunk
        return PayloadRef.from_chunks(chunks)

    def write_payload(self, vaddr: int, payload: PayloadRef) -> None:
        """Scatter a :class:`PayloadRef` into this address space at
        ``vaddr`` — the zero-copy counterpart of :meth:`write_bytes`."""
        addr = vaddr
        for chunk in payload.chunks():
            self.write_bytes(addr, chunk)
            addr += len(chunk)

    # -- pinning (get_user_pages model) -------------------------------------

    def pin_range(self, vaddr: int, length: int) -> list[Frame]:
        """Pin every page of [vaddr, vaddr+length), faulting them in.

        Returns the pinned frames in order.  Raises and pins nothing if
        any page is unmapped (all-or-nothing, like get_user_pages).
        """
        pages = list(self.iter_pages(vaddr, length))
        frames: list[Frame] = []
        for page_addr in pages:
            vma = self.vma_at(page_addr)
            if vma is None:
                for f in frames:
                    f.unpin()
                raise BadAddress(f"pin of unmapped address {page_addr:#x}")
            frame = self.frame_of(page_addr)
            frame.pin()
            frames.append(frame)
        return frames

    @staticmethod
    def unpin_frames(frames: list[Frame]) -> None:
        """Release pins taken by :meth:`pin_range`."""
        for frame in frames:
            frame.unpin()

    # -- internals -----------------------------------------------------------

    def _set_vmas(self, vmas: list[VMA]) -> None:
        self._vmas = sorted(vmas, key=lambda v: v.start)
        self._starts = [v.start for v in self._vmas]

    def _populate(self, vpn: int) -> Frame:
        frame = self.phys.alloc()
        self._pages[vpn] = frame
        return frame

    def _find_region(self, length: int) -> int:
        """First-fit search over the VMA gaps (so freed regions are
        reused — the malloc/munmap address-recycling behaviour that
        makes stale registration-cache entries dangerous)."""
        candidate = USER_BASE
        for vma in self._vmas:  # sorted by start
            if candidate + length <= vma.start:
                return candidate
            candidate = max(candidate, vma.end)
        if candidate + length > USER_TOP:
            raise BadAddress("user address space exhausted")
        return candidate

    def _check_alive(self) -> None:
        if not self._alive:
            raise BadAddress(f"operation on destroyed address space {self.asid}")

    @property
    def populated_pages(self) -> int:
        """Number of currently populated pages (for tests)."""
        return len(self._pages)
