"""Per-layer tracing by attribute replacement.

``Tracer.install()`` replaces public functions and methods of the ``etmaps``
modules with wrappers that record one span per call: key, start, end, parent
span and a measured value (a verdict bit or a size).  Every reference to the
original object is replaced: the defining module, ``from x import f``
re-exports in other ``etmaps`` modules, and module-level dicts such as
``suites.SUITES``.  ``uninstall()`` puts every original back.  No file of the
package changes.

Only the outermost call per key is a span: ``PermGroup.generates`` delegates
to ``GroupTable.generates`` and ``hom_extension_exists`` to
``hom_extension``, and each pair shares one key.  Per-element calls
(``PermGroup.product``, ``perms.compose``) are not wrapped; at millions of
calls the wrapper would measure itself.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

from etmaps import suites
from workloads import VERIFY_QUICK_SUITES


def _truth(args, result) -> bool:
    return bool(result)


REALIZE_CONSTRUCTORS = ("sym_class1", "sym_chiral", "sym_even", "alt_class1",
                        "alt_chiral", "alt_small", "psl2_class1", "psl2_class2_q7",
                        "nilpotent_chiral", "dihedral_spec", "edmonds_k8", "propagate")

# (module, attribute path, span key, measure(args, result) or None)
TARGETS = [
    ("perms", "bfs_closure", "perms.bfs_closure", None),
    ("perms", "is_transitive", "perms.is_transitive", _truth),
    ("perms", "is_primitive", "perms.is_primitive", _truth),
    ("groups", "PermGroup.__init__", "groups.PermGroup.init",
     lambda args, result: args[0].size),
    ("groups", "GroupTable.generates", "groups.generates", _truth),
    ("groups", "PermGroup.generates", "groups.generates", _truth),
    ("groups", "hom_extension", "groups.hom_extension",
     lambda args, result: result is not None),
    ("groups", "hom_extension_exists", "groups.hom_extension", _truth),
    ("groups", "conjugacy_classes", "groups.conjugacy_classes", None),
    ("groups", "simultaneous_inversion_survey", "groups.simultaneous_inversion_survey",
     lambda args, result: result.total_pairs),
    ("groups", "index2_characters", "groups.index2_characters", None),
    ("fields", "pgammal2_generators", "fields.pgammal2_generators", None),
    ("fields", "priminv_check", "fields.priminv_check", None),
    ("build", "check_spec", "build.check_spec", None),
    ("build", "search_epimorphisms", "build.search_epimorphisms",
     lambda args, result: result.examined),
    ("build", "has_forbidden_automorphism", "build.has_forbidden_automorphism",
     lambda args, result: result[0]),
    ("build", "build_map", "build.build_map", lambda args, result: result.n),
    ("flagmaps", "FlagMap.__init__", "flagmaps.FlagMap.init",
     lambda args, result: args[0].n),
    ("flagmaps", "summary", "flagmaps.summary", None),
    ("flagmaps", "aut_generators", "flagmaps.aut_generators", None),
    ("flagmaps", "quotient_by_aut", "flagmaps.quotient_by_aut", None),
    ("flagmaps", "is_isomorphic", "flagmaps.is_isomorphic", None),
    ("flagmaps", "is_isomorphic_oriented", "flagmaps.is_isomorphic_oriented", None),
    ("flagmaps", "join", "flagmaps.join", None),
    ("classes", "classify", "classes.classify", None),
    *[("realize", name, "realize", None) for name in REALIZE_CONSTRUCTORS],
    *[("suites", fn.__name__, f"suites.{name}", None)
      for name, fn in suites.SUITES.items()],
    ("cli", "main", "cli.main", None),
]


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "etmaps" or name.startswith("etmaps."))]


class Tracer:
    """Spans are kept in memory as [key, start, end, parent index, value],
    with times read from ``clock``."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._replaced: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers -------------------------------------------

    def _wrap(self, fn, key: str, measure):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[key]:  # outermost call per key only
                return fn(*args, **kwargs)
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            depth[key] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                depth[key] -= 1
                stack.pop()
            if measure is not None:
                span[4] = measure(args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = {m.__name__.split(".")[-1]: m for m in _package_modules()}
        for mod_name, path, key, measure in TARGETS:
            owner = modules[mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, key, measure)
            if cls_path:  # a method: only the defining class holds it
                self._replace(owner, attr, original, wrapper, setattr)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, original, wrapper, setattr)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._replace(value, k, original, wrapper,
                                              dict.__setitem__)

    def _replace(self, container, name, original, wrapper, setter) -> None:
        setter(container, name, wrapper)
        self._replaced.append((container, name, original))

    def uninstall(self) -> None:
        for container, name, original in reversed(self._replaced):
            if isinstance(container, dict):
                container[name] = original
            else:
                setattr(container, name, original)
        self._replaced.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-layer metrics ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of every span recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_search = [False] * len(spans)
        for i, (key, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_search[i] = (in_search[parent]
                                or spans[parent][0] == "build.search_epimorphisms")
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        value_sum = defaultdict(float)
        searched_false = defaultdict(int)  # filter rejections inside a search
        for i, (key, start, end, parent, value) in enumerate(spans):
            total[key] += end - start
            self_time[key] += end - start - child_time[i]
            calls[key] += 1
            if value is not None:
                value_sum[key] += value
            if in_search[i] and value is not None:
                rejected = value if key == "build.has_forbidden_automorphism" else not value
                searched_false[key] += int(rejected)

        def ratio(a, b):
            return a / b if b else 0.0

        search = "build.search_epimorphisms"
        examined = value_sum[search]
        out: dict[str, float] = {"perms.bfs_closure.s": total["perms.bfs_closure"]}
        for key in ("perms.is_transitive", "perms.is_primitive"):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = total[key]
        key = "groups.PermGroup.init"
        out[f"{key}.s"] = total[key]
        out["groups.PermGroup.elems_per_s"] = ratio(value_sum[key], total[key])
        for key, share in (("groups.generates", "true_share"),
                           ("groups.hom_extension", "extended_share")):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = total[key]
            out[f"{key}.{share}"] = ratio(value_sum[key], calls[key])
        key = "groups.simultaneous_inversion_survey"
        out[f"{key}.s"] = total[key]
        out[f"{key}.self_s"] = self_time[key]
        out[f"{key}.pairs_per_s"] = ratio(value_sum[key], total[key])
        for key in ("groups.index2_characters", "fields.pgammal2_generators",
                    "fields.priminv_check"):
            out[f"{key}.s"] = total[key]
        out[f"{search}.s"] = total[search]
        out[f"{search}.self_s"] = self_time[search]
        out[f"{search}.examined"] = int(examined)
        out[f"{search}.tuples_per_s"] = ratio(examined, total[search])
        for name, key in (("transitive", "perms.is_transitive"),
                          ("primitive", "perms.is_primitive"),
                          ("generation", "groups.generates"),
                          ("forbidden", "build.has_forbidden_automorphism")):
            out[f"{search}.pruned_{name}_share"] = ratio(searched_false[key], examined)
        key = "build.has_forbidden_automorphism"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.s"] = total[key]
        for key in ("build.build_map", "flagmaps.FlagMap.init"):
            out[f"{key}.s"] = total[key]
            out[f"{key}.flags_per_s"] = ratio(value_sum[key], total[key])
        out["flagmaps.FlagMap.init.calls"] = calls["flagmaps.FlagMap.init"]
        for name in ("summary", "aut_generators", "is_isomorphic",
                     "is_isomorphic_oriented", "join"):
            out[f"flagmaps.{name}.s"] = total[f"flagmaps.{name}"]
        key = "classes.classify"
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.s"] = total[key]
        out[f"{key}.self_s"] = self_time[key]
        out["realize.s"] = total["realize"]
        for name in VERIFY_QUICK_SUITES:
            out[f"suites.{name}.s"] = total[f"suites.{name}"]
        out["cli.main.self_s"] = self_time["cli.main"]
        return out
