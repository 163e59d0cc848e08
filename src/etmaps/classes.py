"""The 14 edge-transitive classes: catalog data, basic maps, classification.

Labels use ASCII with ``s`` for *: 1, 2, 2s, 2P, 2ex, 2sex, 2Pex, 3, 4, 4s,
4P, 5, 5s, 5P.  The duality operations D and P act on labels; their orbits
are {1}, {2,2s,2P}, {2ex,2sex,2Pex}, {3}, {4,4s,4P}, {5,5s,5P}.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import flagmaps, perms
from .flagmaps import FlagMap

LABELS = ("1", "2", "2s", "2P", "2ex", "2sex", "2Pex",
          "3", "4", "4s", "4P", "5", "5s", "5P")

_DUAL = {"1": "1", "2": "2s", "2s": "2", "2P": "2P",
         "2ex": "2sex", "2sex": "2ex", "2Pex": "2Pex",
         "3": "3", "4": "4s", "4s": "4", "4P": "4P",
         "5": "5s", "5s": "5", "5P": "5P"}

_PETRIE = {"1": "1", "2": "2", "2s": "2P", "2P": "2s",
           "2ex": "2ex", "2sex": "2Pex", "2Pex": "2sex",
           "3": "3", "4": "4", "4s": "4P", "4P": "4s",
           "5": "5", "5s": "5P", "5P": "5s"}

# Classes T' properly covered by T: the parents N(T') with N(T) <= N(T').
_COVERED = {
    "1": (),
    "2": ("1",), "2s": ("1",), "2P": ("1",),
    "2ex": ("1",), "2sex": ("1",), "2Pex": ("1",),
    "3": ("1", "2", "2s", "2P"),
    "4": ("1", "2"), "4s": ("1", "2s"), "4P": ("1", "2P"),
    # clause 5 of the covering lemma: both choices of tau != sigma occur
    "5": ("1", "2", "2sex", "2Pex"),
    "5s": ("1", "2s", "2ex", "2Pex"),
    "5P": ("1", "2P", "2ex", "2sex"),
}

# Which of R0, R1, R2 lie in the index-2 parent N(T); the basic-map generator
# r_i is the flag swap exactly when R_i is NOT in N(T).
_INDEX2_MEMBERS = {"2": ("R1", "R2"), "2s": ("R0", "R1"), "2P": ("R1",),
                   "2ex": ("R2",), "2sex": ("R0",), "2Pex": ()}

# r1 of the degree-4 basic maps, in the numbering with r0 = (12)(34) and
# r2 = (14)(23) on 1-indexed flags.
_INDEX4_R1 = {"3": (0, 1, 2, 3), "4": (3, 1, 2, 0), "4s": (1, 0, 2, 3),
              "4P": (2, 1, 0, 3), "5": (3, 2, 1, 0), "5s": (1, 0, 3, 2),
              "5P": (2, 3, 0, 1)}


@dataclass(frozen=True)
class ClassInfo:
    label: str
    index: int
    covered: tuple[str, ...]
    dual: str
    petrie: str


def class_index(label: str) -> int:
    if label == "1":
        return 1
    if label in _INDEX2_MEMBERS:
        return 2
    return 4


def class_info(label: str) -> ClassInfo:
    if label not in LABELS:
        raise ValueError(f"unknown class label {label!r}")
    return ClassInfo(label, class_index(label), _COVERED[label],
                     _DUAL[label], _PETRIE[label])


def omega_dual(label: str) -> str:
    return _DUAL[label]


def omega_petrie(label: str) -> str:
    return _PETRIE[label]


def covered(label: str) -> tuple[str, ...]:
    return class_info(label).covered


@functools.cache
def basic_map(label: str) -> FlagMap:
    """The one-edge map N(T): 1, 2 or 4 flags.  It is built once per label
    and shared, so its arrays are read-only."""
    if label not in LABELS:
        raise ValueError(f"unknown class label {label!r}")
    if label == "1":
        arrays = [[0], [0], [0]]
    elif label in _INDEX2_MEMBERS:
        members = _INDEX2_MEMBERS[label]
        swap, ident = [1, 0], [0, 1]
        arrays = [ident if f"R{i}" in members else swap for i in range(3)]
    else:
        # r0 = (12)(34) and r2 = (14)(23), 0-indexed
        arrays = [[1, 0, 3, 2], list(_INDEX4_R1[label]), [3, 2, 1, 0]]
    m = FlagMap(*arrays)
    for a in m.r:
        a.flags.writeable = False
    return m


def classify(m: FlagMap) -> str | None:
    """The class of an edge-transitive map, found by matching the quotient by
    its automorphism group against the basic-map catalog; None when the map is
    not edge-transitive."""
    quotient = flagmaps.quotient_by_aut(m)
    if quotient.n > 4:
        return None
    _, edge_orbits = perms.orbit_ids(quotient.n, [quotient.r[0], quotient.r[2]])
    if edge_orbits != 1:
        return None
    for label in LABELS:
        basic = basic_map(label)
        if basic.n == quotient.n and flagmaps.is_isomorphic(quotient, basic):
            return label
    raise AssertionError("one-edge quotient matches no basic map")
