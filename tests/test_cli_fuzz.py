"""Fuzzing the CLI's JSON boundary: whatever ``etm build``, ``search``,
``classify`` and ``realize`` are given, they exit 0 or 2 and never print a
traceback.

Inputs are arbitrary JSON values and objects shaped like a spec, a group or
a map whose fields hold wrong-typed or out-of-range values, plus text that
is not JSON at all.  Integers stay small so that the inputs which happen to
be valid describe groups of at most a few hundred elements and the file
runs in seconds; every malformed shape is still reachable.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from etmaps import build, classes, cli

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 7),
                    st.floats(-3, 7, allow_nan=False), st.text(max_size=6))
json_values = st.recursive(
    scalars, lambda kids: st.one_of(st.lists(kids, max_size=4),
                                    st.dictionaries(st.text(max_size=5), kids,
                                                    max_size=4)),
    max_leaves=8)
small = st.integers(-1, 3)
cycle_strings = st.one_of(
    st.sampled_from(["()", "(1,2)", "(1,2,3)", "(1,2)(3,4)", "(1,2,3,4)", "(1,,2)",
                     "x", "", "(1,1)", "(1,2)(2,3)"]),
    st.lists(st.integers(-1, 6), max_size=4).map(
        lambda pts: "(" + ",".join(map(str, pts)) + ")"))
image_lists = st.lists(st.integers(-1, 4), max_size=5)
elements = st.one_of(cycle_strings, image_lists, st.integers(-2, 30), json_values)
groups_json = st.one_of(
    st.fixed_dictionaries({
        "degree": st.one_of(st.integers(-1, 5), json_values),
        "generators": st.one_of(st.lists(st.one_of(cycle_strings, image_lists),
                                         max_size=3), json_values)}),
    st.fixed_dictionaries(
        {"family": st.one_of(st.sampled_from(["gpef", "gpef_alpha", "other"]),
                             json_values)},
        optional={"p": st.one_of(small, json_values), "e": st.one_of(small, json_values),
                  "f": st.one_of(small, json_values)}),
    json_values)
labels = st.one_of(st.sampled_from(sorted(build.ORBIT_ROUTE)), json_values)


@st.composite
def specs(draw):
    shape = draw(st.sampled_from(sorted(build.GENERATOR_NAMES)))
    names = build.GENERATOR_NAMES[shape]
    images = draw(st.one_of(
        st.fixed_dictionaries({name: elements for name in names}),
        st.dictionaries(st.text(max_size=3), elements, max_size=3),
        json_values))
    spec = {"class": draw(st.one_of(st.just(shape), labels)),
            "group": draw(groups_json), "images": images}
    if draw(st.booleans()):
        spec["ops"] = draw(st.one_of(st.sampled_from(["", "D", "P", "DP", "X"]),
                                     json_values))
    return spec


map_fields = {"r0": st.one_of(image_lists, json_values),
              "r1": st.one_of(image_lists, json_values),
              "r2": st.one_of(image_lists, json_values),
              "flags": st.one_of(st.integers(-1, 5), json_values)}
maps_json = st.one_of(st.fixed_dictionaries(map_fields),
                      st.fixed_dictionaries({}, optional=map_fields), json_values)


def _run(argv, stdin_text=""):
    """``cli.main`` in-process, with stdin given and stdout/stderr captured.
    Any exception but argparse's ``SystemExit`` propagates and fails the
    example."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = old_stdin
    return code, err.getvalue()


def _assert_clean(argv, stdin_text=""):
    code, err = _run(argv, stdin_text)
    assert code in (0, 2), (argv, stdin_text, code, err)
    assert "Traceback" not in err, err


def _as_file(value, raw_text):
    return raw_text if raw_text is not None else json.dumps(value)


@FUZZ
@given(specs(), st.one_of(st.none(), st.text(max_size=12)))
def test_build_never_shows_a_traceback(spec, raw_text):
    _assert_clean(["build", "--spec", "-"], _as_file(spec, raw_text))


@FUZZ
@given(groups_json, labels, st.lists(st.sampled_from(
    ["--keep-all", "--even", "--up-to-cycle-type"]), max_size=2, unique=True),
    st.one_of(st.none(), st.integers(-2, 3)), st.one_of(st.none(), st.text(max_size=12)))
def test_search_never_shows_a_traceback(group, label, flags, limit, raw_text):
    argv = ["search", "--class", str(label), "--group", "-"] + flags
    if limit is not None:
        argv += ["--limit", str(limit)]
    _assert_clean(argv, _as_file(group, raw_text))


@FUZZ
@given(maps_json, st.one_of(st.none(), st.text(max_size=12)))
def test_classify_never_shows_a_traceback(m, raw_text):
    _assert_clean(["classify", "-"], _as_file(m, raw_text))


@FUZZ
@given(st.one_of(st.sampled_from(["sym", "sym-even", "alt", "alt-small", "psl2",
                                  "psl2-class2", "nilpotent-chiral", "dihedral",
                                  "edmonds-k8"]), st.text(max_size=6)),
       st.one_of(st.sampled_from(list(classes.LABELS)), st.text(max_size=4)),
       st.sampled_from(["--n", "--q", "--e", "--m"]), st.integers(-2, 6),
       st.booleans())
def test_realize_never_shows_a_traceback(family, label, option, value, emit_map):
    argv = ["realize", "--family", family, "--class", label, option, str(value)]
    if emit_map:
        argv.append("--emit-map")
    _assert_clean(argv)
