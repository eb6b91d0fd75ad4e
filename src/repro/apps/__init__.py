"""The eight benchmark applications of Section 3.2.

Each implements the :class:`~repro.apps.base.Application` interface: the
same worker generator runs sequentially (the Table 2 baseline) and in
parallel under any protocol and placement, and the final shared data is
verified against the sequential result.
"""

from ..errors import ConfigError
from .barnes import Barnes
from .base import Application, split_range
from .em3d import Em3d
from .gauss import Gauss
from .ilink import Ilink
from .lu import LU
from .sor import SOR
from .tsp import TSP
from .water import Water

#: Table 2 order.
ALL_APPS = {
    "SOR": SOR,
    "LU": LU,
    "Water": Water,
    "TSP": TSP,
    "Gauss": Gauss,
    "Ilink": Ilink,
    "Em3d": Em3d,
    "Barnes": Barnes,
}


def make_app(name: str) -> Application:
    """Instantiate a benchmark application by its Table 2 name."""
    cls = ALL_APPS.get(name)
    if cls is None:
        raise ConfigError(f"application {name!r} is not one of "
                          f"{', '.join(ALL_APPS)}")
    return cls()


__all__ = ["Application", "split_range", "ALL_APPS", "make_app",
           "SOR", "LU", "Water", "TSP", "Gauss", "Ilink", "Em3d", "Barnes"]
