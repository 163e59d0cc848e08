"""Command-line surface: build, classify, inspect, transform, search,
realize, and run the named verification suites.

Output is deterministic JSON (sorted keys) or markdown for suite reports;
``-`` reads from stdin so commands chain.  Exit codes: 0 success, 1 a
verification suite failed, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import build, classes, flagmaps, groups, perms, realize, suites
from .flagmaps import FlagMap


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_map(path: str) -> FlagMap:
    return FlagMap.from_json(json.loads(_read(path)))


def _load_spec(path: str) -> tuple[build.EpimorphismSpec, str]:
    obj = json.loads(_read(path))
    spec = build.spec_from_json(obj)
    ops = obj.get("ops", "")
    if not isinstance(ops, str):
        raise ValueError(f"\"ops\" must be a string of D and P, not {ops!r}")
    return spec, ops


def _realization_json(real: realize.Realization) -> dict:
    spec = real.spec
    out = spec.to_json()
    out["label"] = real.label
    out["ops"] = real.ops
    out["group"] = spec.group.to_json()
    return out


def cmd_build(args) -> int:
    spec, ops = _load_spec(args.spec)
    m = build.transform_spec(spec, ops)
    _emit(m.to_json())
    return 0


def cmd_classify(args) -> int:
    m = _load_map(args.map)
    label = classes.classify(m)
    print(label if label is not None else "not-edge-transitive")
    return 0


def cmd_info(args) -> int:
    m = _load_map(args.map)
    _emit(flagmaps.summary(m).to_json())
    return 0


def cmd_op(args) -> int:
    if args.operation != "join" and args.other is not None:
        raise ValueError(f"{args.operation} takes one map, not two")
    m = _load_map(args.map)
    if args.operation == "dual":
        out = m.dual()
    elif args.operation == "petrie":
        out = m.petrie()
    elif args.operation == "join":
        if args.other is None:
            raise ValueError("join needs a second map")
        out = flagmaps.join(m, _load_map(args.other))
    else:
        raise ValueError(f"unknown operation {args.operation!r}")
    _emit(out.to_json())
    return 0


def cmd_realize(args) -> int:
    try:
        return _cmd_realize(args)
    except realize.Unrealizable as exc:
        _emit({"unrealizable": str(exc), "provenance": exc.provenance})
        return 0


# per family: the numeric option it needs (or None), the one class it
# realizes (or None: any class, by default 1), and its builder, called with
# the class label and the option's value; the builders name module
# attributes at call time, so a traced or patched constructor is the one run
_FAMILIES = {
    "sym": ("n", None, lambda label, n: suites.sym_witness(label, n)),
    "sym_even": ("n", None, lambda label, n: realize.sym_even(label, n)),
    "alt": ("n", None, lambda label, n: suites.alt_witness(label, n)),
    "alt_small": ("n", None, lambda label, n: realize.alt_small(label, n)),
    "psl2": ("q", None, lambda label, q: suites.psl2_witness(label, q)),
    "psl2_class2": (None, "2", lambda label, _: realize.psl2_class2_q7()),
    "nilpotent_chiral": ("e", "2Pex", lambda label, e: realize.nilpotent_chiral(e)),
    "dihedral": ("m", "1", lambda label, m: realize.dihedral_spec(m)),
    "edmonds_k8": (None, "2Pex", lambda label, _: realize.edmonds_k8()),
}


def _check_label(label: str) -> None:
    if label not in build.ORBIT_ROUTE:
        raise ValueError(f"unknown class label {label!r}; the labels are "
                         + ", ".join(classes.LABELS))


def _cmd_realize(args) -> int:
    family = args.family.replace("-", "_")
    param, own, make = _FAMILIES.get(family, (None, None, None))
    label = args.klass if args.klass is not None else own or "1"
    _check_label(label)
    if own is not None and label != own:
        raise ValueError(f"--family {args.family} realizes class {own} only, "
                         f"not {label}")
    if param is not None and getattr(args, param) is None:
        raise ValueError(f"--family {args.family} needs --{param}")
    if make is None:
        raise ValueError(f"unknown family {args.family!r}")
    real = make(label, getattr(args, param) if param else None)
    if isinstance(real, tuple):  # edmonds_k8: a pair of maps
        _emit([_realization_json(r) for r in real])
        return 0
    out = _realization_json(real)
    if args.emit_map:
        out["map"] = real.build().to_json()
    _emit(out)
    return 0


def cmd_search(args) -> int:
    _check_label(args.klass)
    if args.cap < 1:
        raise ValueError(f"cap must be a positive number of elements, not {args.cap}")
    G = groups.group_from_json(json.loads(_read(args.group)), cap=args.cap)
    result = build.search_epimorphisms(
        args.klass, G,
        limit=None if args.keep_all else args.limit,
        even=args.even,
        up_to_cycle_type=args.up_to_cycle_type)
    shape, _ = build.ORBIT_ROUTE[args.klass]
    witnesses = [{name: G.element_json(x) for name, x in w.items()}
                 for w in result.witnesses]
    _emit({"class": args.klass, "shape": shape, "witnesses": witnesses,
           "examined": result.examined, "proved_empty": result.proved_empty})
    return 0


def cmd_verify(args) -> int:
    names = sorted(suites.SUITES) if args.suite == "all" else [args.suite]
    exit_code = 0
    for name in names:
        started = time.time()
        report = suites.run_suite(name)
        if args.format == "md":
            print(report.to_markdown())
        else:
            _emit(report.to_json())
        print(f"[{name}] {len(report.cases)} cases, {report.failed} failed, "
              f"{time.time() - started:.1f}s", file=sys.stderr)
        exit_code = max(exit_code, report.exit_code)
    return exit_code


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etm", description="edge-transitive maps: build, classify, verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the flag map of an epimorphism spec")
    p.add_argument("--spec", required=True, help="spec JSON file or -")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("classify", help="edge-transitive class of a map")
    p.add_argument("map", help="FlagMap JSON file or -")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("info", help="summary invariants of a map")
    p.add_argument("map", help="FlagMap JSON file or -")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("op", help="apply dual, petrie or join")
    p.add_argument("operation", choices=("dual", "petrie", "join"))
    p.add_argument("map", help="FlagMap JSON file or -")
    p.add_argument("other", nargs="?", help="second map for join")
    p.set_defaults(func=cmd_op)

    p = sub.add_parser("realize", help="emit a named realization spec")
    p.add_argument("--family", required=True,
                   help=" | ".join(f.replace("_", "-") for f in _FAMILIES))
    p.add_argument("--class", dest="klass",
                   help="class label (default: the family's own class, else 1)")
    p.add_argument("--n", type=int, help="degree for sym/alt families")
    p.add_argument("--q", type=int, help="prime power for psl2")
    p.add_argument("--e", type=int, help="exponent for nilpotent-chiral")
    p.add_argument("--m", type=int, help="circuit length for dihedral")
    p.add_argument("--emit-map", action="store_true")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("search", help="exhaustive epimorphism search")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--group", required=True, help="group JSON file or -")
    p.add_argument("--even", action="store_true",
                   help="restrict to orientable boundary-free realizations")
    how_many = p.add_mutually_exclusive_group()
    how_many.add_argument("--limit", type=int, default=1,
                          help="return the first N witnesses (default 1)")
    how_many.add_argument("--keep-all", action="store_true",
                          help="return every witness")
    p.add_argument("--up-to-cycle-type", action="store_true")
    p.add_argument("--cap", type=int, default=groups.TABLE_CAP)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="suite name or 'all': " + ", ".join(sorted(suites.SUITES)))
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, json.JSONDecodeError, OSError,
            perms.CapExceeded, realize.Unrealizable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
