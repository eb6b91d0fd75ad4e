"""The Cashmere protocol family: 2L, 2LS, 1LD, 1L and their meta-data."""

from ..config import Protocol
from ..errors import ConfigError
from .base import BaseProtocol
from .cashmere2l import Cashmere2L, Cashmere2LS
from .directory import (NO_HOLDER, DirectoryLockModel, DirEntry,
                        GlobalDirectory, PageMeta)
from .messages import RequestEngine
from .onelevel import Cashmere1L, Cashmere1LD, OneLevelProtocol
from .writenotice import NoticeBoard, WriteNotice

#: Map from protocol enum / short name to implementation class.
PROTOCOL_CLASSES = {
    Protocol.CSM_2L: Cashmere2L,
    Protocol.CSM_2LS: Cashmere2LS,
    Protocol.CSM_1LD: Cashmere1LD,
    Protocol.CSM_1L: Cashmere1L,
}


def make_protocol(name, cluster, *, lock_free=True, home_opt=False):
    """Instantiate a protocol by enum or short string name ("2L", ...).

    ``lock_free=False`` selects the Section 3.3.5 global-lock ablation
    under all four protocols: every directory word is then priced under
    one cluster-wide lock (a ``DirectoryLockModel``). ``home_opt=True``
    enables the home-node optimization (one-level protocols only).
    """
    if isinstance(name, str):
        try:
            name = Protocol(name)
        except ValueError:
            raise ConfigError(
                f"protocol {name!r} is not one of "
                f"{', '.join(p.value for p in Protocol)}") from None
    cls = PROTOCOL_CLASSES[name]
    if name.two_level:
        if home_opt:
            raise ConfigError("home_opt: the home-node optimization applies "
                              "only to the one-level protocols")
        return cls(cluster, lock_free=lock_free)
    return cls(cluster, lock_free=lock_free, home_opt=home_opt)


__all__ = [
    "BaseProtocol", "Cashmere2L", "Cashmere2LS", "Cashmere1LD", "Cashmere1L",
    "OneLevelProtocol", "GlobalDirectory", "DirectoryLockModel", "DirEntry",
    "PageMeta", "NoticeBoard", "WriteNotice", "RequestEngine",
    "PROTOCOL_CLASSES", "make_protocol", "NO_HOLDER",
]
