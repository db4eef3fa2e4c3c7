"""Message kinds carried by the mesh, and their default sizes.

Sizes follow the granularities the paper reasons about: translation
requests/responses are small control packets, PTE pushes carry a handful of
entries, and data accesses move one cacheline (the zero-copy model accesses
remote memory at cacheline granularity).
"""

from __future__ import annotations

import enum


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
        MessageKind.PTE_PUSH,
        MessageKind.REDIRECT,
    }
)

