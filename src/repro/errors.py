"""Exception hierarchy for the repro package.

Every layer raises a subclass of :class:`ReproError`, so callers can
catch the whole stack with one except clause while tests can pin down
exactly which layer failed.  Error classes mirror the error conditions
of the systems they model (e.g. GM's ``GM_STATUS`` codes, POSIX errno
values in the VFS layer).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by the repro package."""


# -- simulation engine -------------------------------------------------------


class SimulationError(ReproError):
    """Misuse of or inconsistency inside the discrete-event engine."""


class ProcessInterrupt(SimulationError):
    """A process was interrupted while waiting; carries the cause."""

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


# -- memory subsystem --------------------------------------------------------


class MemoryError_(ReproError):
    """Base class for memory-subsystem failures (frame/VA management)."""


class OutOfMemory(MemoryError_):
    """No free physical frame available."""


class BadAddress(MemoryError_):
    """Access to an unmapped or out-of-range virtual address (SIGSEGV)."""


class ProtectionFault(MemoryError_):
    """Access violating the VMA protection bits."""


class PinningError(MemoryError_):
    """Unbalanced pin/unpin or pinning an unmapped page."""


# -- NIC / network -----------------------------------------------------------


class NicError(ReproError):
    """Base class for NIC and firmware failures."""


class TranslationTableFull(NicError):
    """No free entry in the NIC translation table and nothing evictable."""


class TranslationMiss(NicError):
    """The NIC was asked to translate an address it has no entry for."""


class PortError(NicError):
    """Port/endpoint misuse: closed port, bad id, duplicate open."""


class NetworkError(ReproError):
    """Link or fabric level failure (down link, no route)."""


class TimeoutError_(ReproError):
    """An operation exceeded its deadline (simulated time, never wall
    clock).  Raised by timed waits on transports; upper layers retry or
    surface :class:`Eio`."""


class LinkDown(NetworkError):
    """The link carrier is gone and nothing masks it (no reliable
    delivery layer to retransmit around the outage)."""


class MessageDropped(NetworkError):
    """A message was lost and will not be recovered: either the fabric
    is unreliable, or the reliable-delivery layer exhausted its
    retransmission budget and declared the peer unreachable."""


class NodeCrashed(NetworkError):
    """The target (or local) node has crashed; its NIC accepts nothing."""


# -- GM / MX APIs ------------------------------------------------------------


class GMError(ReproError):
    """GM API error (models GM_STATUS != GM_SUCCESS)."""


class GMRegistrationError(GMError):
    """register/deregister misuse: double registration, unknown region."""


class GMSendQueueFull(GMError):
    """Too many pending send requests on a GM port (GM bounds these)."""


class MXError(ReproError):
    """MX API error (models mx_return_t != MX_SUCCESS)."""


class MXBadSegment(MXError):
    """A vectorial segment descriptor is malformed or of the wrong type."""


# -- kernel ------------------------------------------------------------------


class KernelError(ReproError):
    """Base class for in-kernel subsystem failures."""


class FsError(KernelError):
    """File-system error carrying a POSIX-style errno name."""

    def __init__(self, errno_name: str, message: str = ""):
        super().__init__(f"[{errno_name}] {message}" if message else errno_name)
        self.errno_name = errno_name


class Enoent(FsError):
    """No such file or directory."""

    def __init__(self, message: str = ""):
        super().__init__("ENOENT", message)


class Eexist(FsError):
    """File already exists."""

    def __init__(self, message: str = ""):
        super().__init__("EEXIST", message)


class Eisdir(FsError):
    """Target is a directory."""

    def __init__(self, message: str = ""):
        super().__init__("EISDIR", message)


class Enotdir(FsError):
    """A path component is not a directory."""

    def __init__(self, message: str = ""):
        super().__init__("ENOTDIR", message)


class Enotempty(FsError):
    """Directory not empty."""

    def __init__(self, message: str = ""):
        super().__init__("ENOTEMPTY", message)


class Ebadf(FsError):
    """Bad file descriptor."""

    def __init__(self, message: str = ""):
        super().__init__("EBADF", message)


class Einval(FsError):
    """Invalid argument (e.g. misaligned O_DIRECT transfer)."""

    def __init__(self, message: str = ""):
        super().__init__("EINVAL", message)


class Eio(FsError):
    """I/O error: the storage/file client exhausted its retry budget
    (lost replies, crashed server) and surfaces the failure to the VFS
    instead of hanging forever.

    ``reason`` names which failure path fired so callers can choose a
    recovery: ``"timeout"`` (replies never came — the same server may
    still answer a retry), ``"dead_peer"`` (the fabric's reliability
    layer declared the peer unreachable — fail over, do not retry the
    same server) or ``"network"`` (other fabric errors).
    """

    def __init__(self, message: str = "", reason: str = ""):
        super().__init__("EIO", message)
        self.reason = reason


# -- protocol / sockets ------------------------------------------------------


class ProtocolError(ReproError):
    """Malformed or unexpected message in a wire protocol (ORFA, sockets)."""


class SocketError(ReproError):
    """Socket layer misuse: not connected, already closed."""
