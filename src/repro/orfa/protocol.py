"""The ORFA wire protocol: requests and replies.

Messages consist of a fixed-size header plus an optional data payload.
The header travels as the simulator's out-of-band ``meta`` object (its
wire bytes are accounted in the message size); file data travels as real
bytes so end-to-end correctness is testable.

Replies are matched to requests by ``request_id`` (the client posts its
reply buffer with that match key before sending the request, so reply
data can land directly in its final destination — page-cache frame or
pinned user buffer — with zero copies at the client).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..kernel.vfs import InodeAttrs

#: Wire size of a request header (operation, ids, offsets, lengths).
REQUEST_WIRE_BYTES = 64
#: Wire size of a reply header; it rides along the data payload as
#: protocol metadata and is small enough to be folded into the message's
#: fixed costs (documented simplification).
REPLY_HEADER_BYTES = 32
#: Per-entry wire cost of a readdir reply.
DIRENT_WIRE_BYTES = 32


class OrfaOp(enum.Enum):
    LOOKUP = "lookup"
    GETATTR = "getattr"
    CREATE = "create"
    MKDIR = "mkdir"
    UNLINK = "unlink"
    READDIR = "readdir"
    TRUNCATE = "truncate"
    READ = "read"
    WRITE = "write"


@dataclass(slots=True)
class OrfaRequest:
    """One client request."""

    op: OrfaOp
    request_id: int
    inode: int = 0  # target inode (or parent for namespace ops)
    name: str = ""  # child name for namespace ops
    offset: int = 0
    length: int = 0  # read/write length, or truncate size

    def wire_size(self) -> int:
        """Bytes of the request message, excluding write payload."""
        return REQUEST_WIRE_BYTES + len(self.name.encode())


@dataclass(slots=True)
class OrfaReply:
    """One server reply header (data payload travels beside it)."""

    request_id: int
    status: str = "OK"  # "OK" or an errno name ("ENOENT", ...)
    attrs: Optional[InodeAttrs] = None
    names: list[str] = field(default_factory=list)
    count: int = 0  # bytes read/written

    @property
    def ok(self) -> bool:
        return self.status == "OK"

    def data_wire_size(self, data_len: int) -> int:
        """Bytes of the reply message given its payload length."""
        return max(1, data_len + DIRENT_WIRE_BYTES * len(self.names))
