"""The class a built map should fall into, predicted from the spec alone.

``expected_class(spec)`` reads the subgroup lattice between N(T) and the full
parent group off the forbidden patterns that extend to automorphisms of the
target, every one of them listed by ``forbidden_tags(spec)``.  It is the
oracle for ``classify(build_map(spec))`` on specs that are not witnesses,
where the map drops into a covered class.  Class 4 needs a
second step on the extension of the target by the automorphism that the
first matched pattern induces (:class:`InvolutoryExtension`).
"""

from __future__ import annotations

from typing import Sequence

from etmaps import groups
from etmaps.build import _FORBIDDEN, GENERATOR_NAMES, EpimorphismSpec
from etmaps.groups import GroupTable


class InvolutoryExtension(GroupTable):
    """G x| <t> with t^2 = 1 acting on G by a given involutory automorphism.

    Elements (x, eps) with id = x*2 + eps and (x,1)(y,d) = (x a(y), 1+d).
    """

    def __init__(self, base: GroupTable, alpha: Sequence[int]):
        if len(alpha) != base.size:
            raise ValueError("alpha must be a map on all element ids")
        self.base = base
        self.alpha = list(alpha)
        for x in range(base.size):
            if self.alpha[self.alpha[x]] != x:
                raise ValueError("alpha is not involutory")
        self.size = 2 * base.size
        self.generators = [g * 2 for g in base.generators] + [1]  # (e,1) has id 1

    def product(self, a: int, b: int) -> int:
        x, eps = divmod(a, 2)
        y, delta = divmod(b, 2)
        y2 = self.alpha[y] if eps else y
        return self.base.product(x, y2) * 2 + ((eps + delta) % 2)

    def inverse(self, a: int) -> int:
        x, eps = divmod(a, 2)
        xi = self.base.inverse(x)
        return (self.alpha[xi] if eps else xi) * 2 + eps

    def label(self, a: int) -> str:
        x, eps = divmod(a, 2)
        return self.base.label(x) + (" t" if eps else "")


# class reached when exactly the tagged subset of E-conjugations fixes the
# kernel (class 4 is handled separately: N(4) is not normal in the parent
# lattice, so only the R2 step is a direct pattern)
_DROP = {
    "2": {frozenset(): "2", frozenset({"R0"}): "1"},
    "2ex": {frozenset(): "2ex", frozenset({"R0"}): "1"},
    "2Pex": {frozenset(): "2Pex", frozenset({"R2"}): "1"},
    "3": {frozenset(): "3", frozenset({"R0"}): "2s", frozenset({"R2"}): "2",
          frozenset({"R0R2"}): "2P"},
    "5": {frozenset(): "5", frozenset({"R2"}): "2", frozenset({"R0"}): "2sex",
          frozenset({"R0R2"}): "2Pex"},
}


def forbidden_tags(spec: EpimorphismSpec) -> list[str]:
    """The tags of every forbidden pattern of the class that extends to an
    automorphism of the target, in ``_FORBIDDEN`` order.  Each pattern is
    decided by the Cayley-graph walk ``groups.hom_extension`` on the
    group's element table, so no stabilizer chain is involved.  The images
    must generate the target."""
    T = spec.group
    images = spec.images
    names = GENERATOR_NAMES[spec.class_label]
    src = [images[name] for name in names]
    tags = []
    for tag, pattern in _FORBIDDEN[spec.class_label]:
        dst = []
        for name in names:
            pname, exp = pattern[name]
            dst.append(images[pname] if exp == 1 else T.inverse(images[pname]))
        if groups.hom_extension(T, src, dst) is not None:
            tags.append(tag)
    return tags


def expected_class(spec: EpimorphismSpec) -> str:
    """Class of the built map, predicted from the matched forbidden patterns
    alone (the subgroup lattice between N(T) and the full parent)."""
    matched = forbidden_tags(spec)
    label = spec.class_label
    if label == "1":
        return "1"
    if label == "4":
        if not matched:
            return "4"
        return "1" if _class4_second_drop(spec) else "2"
    mset = frozenset(matched)
    drop = _DROP[label]
    if mset in drop:
        return drop[mset]
    # two or more E-conjugations fix the kernel, hence all of E does
    return "1"


def _class4_second_drop(spec: EpimorphismSpec) -> bool:
    """After the degree-2 drop 4 -> 2, does the extended quotient also admit
    the class-2 forbidden automorphism (drop to class 1)?

    The extension is A' = A x| <t> with t the image of R2; the induced class-2
    generators are (s1, s t, t).
    """
    G = spec.group
    s1, s2, s = (spec.images[n] for n in GENERATOR_NAMES["4"])
    alpha = groups.hom_extension(G, (s1, s2, s), (s2, s1, G.inverse(s)))
    assert alpha is not None
    ext = InvolutoryExtension(G, alpha)
    src = (s1 * 2, s * 2 + 1, 1)
    dst = (s * 2 + 1, s1 * 2, 1)
    return groups.hom_extension_exists(ext, src, dst)
