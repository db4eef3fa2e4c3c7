"""Message types carried by the mesh.

Sizes follow the granularities the paper reasons about: translation
requests/responses are small control packets, PTE pushes carry a handful of
entries, and data accesses move one cacheline (the zero-copy model accesses
remote memory at cacheline granularity).
"""

from __future__ import annotations

import enum
from typing import Any, Optional, Tuple

Coordinate = Tuple[int, int]


class MessageKind(enum.Enum):
    """Categories of mesh traffic, used for traffic accounting.

    Members are singletons, so the C-level identity hash replaces Enum's
    Python-level name hash — per-kind counter dicts are updated on every
    send and the hash call showed up in profiles.  Equality is already
    identity, so hash/eq consistency is unchanged.
    """

    __hash__ = object.__hash__

    TRANSLATION_REQ = "translation_req"
    TRANSLATION_RESP = "translation_resp"
    PEER_PROBE = "peer_probe"
    PEER_RESP = "peer_resp"
    PTE_PUSH = "pte_push"
    REDIRECT = "redirect"
    DATA_REQ = "data_req"
    DATA_RESP = "data_resp"
    PAGE_MIGRATION = "page_migration"


#: Default payload sizes in bytes per message kind.
MESSAGE_BYTES = {
    MessageKind.TRANSLATION_REQ: 16,
    MessageKind.TRANSLATION_RESP: 16,
    MessageKind.PEER_PROBE: 16,
    MessageKind.PEER_RESP: 16,
    MessageKind.PTE_PUSH: 32,
    MessageKind.REDIRECT: 16,
    MessageKind.DATA_REQ: 16,
    MessageKind.DATA_RESP: 80,  # 64 B cacheline + header
    MessageKind.PAGE_MIGRATION: 4096 + 16,  # one page + header
}

#: Control-plane kinds counted as "translation traffic" for the paper's
#: extra-traffic measurement (§V-D).
TRANSLATION_KINDS = frozenset(
    {
        MessageKind.TRANSLATION_REQ,
        MessageKind.TRANSLATION_RESP,
        MessageKind.PEER_PROBE,
        MessageKind.PEER_RESP,
        MessageKind.PTE_PUSH,
        MessageKind.REDIRECT,
    }
)


class Message:
    """One mesh packet.

    A plain ``__slots__`` class rather than a dataclass: one is built per
    send, and the generated ``__init__``/``__post_init__`` pair showed up
    in profiles.  Field order and defaults match the old dataclass.
    """

    __slots__ = ("kind", "src", "dst", "payload", "size_bytes")

    def __init__(
        self,
        kind: MessageKind,
        src: Coordinate,
        dst: Coordinate,
        payload: Any = None,
        size_bytes: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = MESSAGE_BYTES[kind] if size_bytes is None else size_bytes

    @property
    def is_translation_traffic(self) -> bool:
        return self.kind in TRANSLATION_KINDS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(kind={self.kind!r}, src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r}, size_bytes={self.size_bytes!r})"
        )
