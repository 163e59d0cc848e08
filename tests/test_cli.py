import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import etmaps
from etmaps import cli, realize


def run_cli(args, stdin_text=None, capsys=None):
    """Call the CLI entry point in-process and capture stdout."""
    if stdin_text is not None:
        import io
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = cli.main(args)
        finally:
            sys.stdin = old
    else:
        code = cli.main(args)
    out, _ = capsys.readouterr()
    return code, out


def spec_json():
    return json.dumps({
        "class": "2Pex",
        "group": {"degree": 6, "generators": ["(1,2,3,4,5,6)", "(1,2)"]},
        "images": {"X": "(1,2,3,4,5,6)", "Y": "(1,2)(3,5)"},
    })


def test_build_then_classify(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(spec_json())
    code, out = run_cli(["build", "--spec", str(spec_file)], capsys=capsys)
    assert code == 0
    m = json.loads(out)
    assert m["flags"] == 1440
    code, out = run_cli(["classify", "-"], stdin_text=json.dumps(m), capsys=capsys)
    assert code == 0
    assert out.strip() == "2Pex"


def test_info_n46_3(capsys, tmp_path):
    m = realize.psl2_class1(11).build()
    map_file = tmp_path / "n46_3.json"
    map_file.write_text(json.dumps(m.to_json()))
    code, out = run_cli(["info", str(map_file)], capsys=capsys)
    assert code == 0
    info = json.loads(out)
    assert (info["V"], info["E"], info["F"], info["chi"]) == (55, 165, 66, -44)
    assert info["genus"] == {"kind": "non_orientable", "value": 46}


def test_op_dual_classify_chain(capsys, tmp_path):
    # etm op dual tetra.json | etm classify -  ->  "1"
    from etmaps import build as bld
    G = realize.sym_group(4)
    w = bld.search_epimorphisms("1", G, exhaustive=False, limit=1).witnesses[0]
    m = bld.build_map(bld.EpimorphismSpec("1", G, w))
    map_file = tmp_path / "tetra.json"
    map_file.write_text(json.dumps(m.to_json()))
    code, out = run_cli(["op", "dual", str(map_file)], capsys=capsys)
    assert code == 0
    code, out = run_cli(["classify", "-"], stdin_text=out, capsys=capsys)
    assert code == 0
    assert out.strip() == "1"


def test_classify_basic_2Pex_prints_covered_class(capsys, tmp_path):
    from etmaps import classes
    m = classes.basic_map("2Pex")
    map_file = tmp_path / "basic_2Pex.json"
    map_file.write_text(json.dumps(m.to_json()))
    code, out = run_cli(["classify", str(map_file)], capsys=capsys)
    assert code == 0
    assert out.strip() == "1"  # the basic map of a class is never in that class


def test_realize_emits_spec(capsys):
    code, out = run_cli(["realize", "--family", "psl2", "--q", "11",
                         "--class", "1"], capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["class"] == "1"
    assert obj["group"]["degree"] == 12


def test_realize_unrealizable_is_reported(capsys):
    code, out = run_cli(["realize", "--family", "sym-even", "--class", "1",
                         "--n", "6"], capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert "unrealizable" in obj


def test_realize_roundtrips_through_build(capsys, tmp_path):
    code, out = run_cli(["realize", "--family", "nilpotent-chiral", "--e", "4"],
                        capsys=capsys)
    assert code == 0
    spec_file = tmp_path / "nilp.json"
    spec_file.write_text(out)
    code, out = run_cli(["build", "--spec", str(spec_file)], capsys=capsys)
    assert code == 0
    assert json.loads(out)["flags"] == 1024


def test_search_cli(capsys, tmp_path):
    group_file = tmp_path / "s5.json"
    group_file.write_text(json.dumps(
        {"degree": 5, "generators": ["(1,2,3,4,5)", "(1,2)"]}))
    code, out = run_cli(["search", "--class", "2Pex", "--group", str(group_file),
                         "--exhaustive", "--up-to-cycle-type"], capsys=capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["proved_empty"] is True
    assert obj["witnesses"] == []


def test_verify_suite_exit_codes(capsys):
    code, out = run_cli(["verify", "rewrite-soundness"], capsys=capsys)
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["fail"] == 0


def test_verify_markdown_format(capsys):
    code, out = run_cli(["verify", "priminv", "--format", "md"], capsys=capsys)
    assert code == 0
    assert out.startswith("## suite priminv")
    assert "| q=4 |" in out


def test_malformed_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["classify", str(bad)], capsys=capsys)
    assert code == 2


def test_byte_stable_output(capsys):
    code1, out1 = run_cli(["verify", "rewrite-soundness"], capsys=capsys)
    code2, out2 = run_cli(["verify", "rewrite-soundness"], capsys=capsys)
    assert out1 == out2


def _assert_rewrite_soundness_passes(proc):
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["counts"]["fail"] == 0


@pytest.mark.skipif(shutil.which("etm") is None,
                    reason="etm console script not on PATH (package not installed)")
def test_console_script_installed():
    proc = subprocess.run(["etm", "verify", "rewrite-soundness"],
                          capture_output=True, text=True)
    _assert_rewrite_soundness_passes(proc)


def run_module(args, cwd=None, timeout=None):
    """Run ``python -m etmaps.cli`` in a fresh interpreter that finds the
    package only via PYTHONPATH."""
    src = str(Path(etmaps.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "etmaps.cli", *args], cwd=cwd, timeout=timeout,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point():
    # the same contract as the console script
    _assert_rewrite_soundness_passes(run_module(["verify", "rewrite-soundness"]))


def _assert_input_error(proc):
    """Malformed input: exit 2 and a one-line message, never a traceback."""
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_search_cap_overflow_is_input_error(tmp_path):
    (tmp_path / "s6.json").write_text(json.dumps(
        {"degree": 6, "generators": ["(1,2,3,4,5,6)", "(1,2)"]}))
    proc = run_module(["search", "--class", "1", "--group", "s6.json",
                       "--cap", "100"], cwd=tmp_path)
    _assert_input_error(proc)
    assert "cap of 100" in proc.stderr


def test_search_group_over_default_cap_is_input_error(capsys, tmp_path):
    # |S12| = 479,001,600 > 10^7: the stabilizer chain decides before any
    # element is enumerated, so this returns at once
    (tmp_path / "s12.json").write_text(json.dumps(
        {"degree": 12, "generators": ["(1,2,3,4,5,6,7,8,9,10,11,12)", "(1,2)"]}))
    _assert_input_error_in_process(
        capsys, ["search", "--class", "1", "--group", str(tmp_path / "s12.json")],
        "cap of 10000000")


def _gpef_spec_file(tmp_path, images):
    (tmp_path / "spec.json").write_text(json.dumps({
        "class": "5", "group": {"family": "gpef", "p": 3, "e": 2, "f": 1},
        "images": images}))
    return "spec.json"


def test_gpef_cycle_string_image_is_input_error(tmp_path):
    spec = _gpef_spec_file(tmp_path, {"S": "(1,2)", "S'": [0, 1]})
    _assert_input_error(run_module(["build", "--spec", spec], cwd=tmp_path))


def test_gpef_image_list_of_wrong_length_is_input_error(tmp_path):
    spec = _gpef_spec_file(tmp_path, {"S": [1, 0, 0], "S'": [0, 1]})
    _assert_input_error(run_module(["build", "--spec", spec], cwd=tmp_path))


def test_gpef_spec_with_exponent_lists_builds(capsys, tmp_path):
    spec = _gpef_spec_file(tmp_path, {"S": [1, 0], "S'": [0, 1]})
    code, out = run_cli(["build", "--spec", str(tmp_path / spec)], capsys=capsys)
    assert code == 0
    assert json.loads(out)["flags"] == 4 * 81


def test_cycle_type_search_on_gpef_is_input_error(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps({"family": "gpef", "p": 3, "e": 2,
                                                 "f": 1}))
    proc = run_module(["search", "--class", "5", "--group", "g.json",
                       "--up-to-cycle-type"], cwd=tmp_path)
    _assert_input_error(proc)


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        meta = tomllib.load(fh)
    assert meta["project"]["scripts"]["etm"] == "etmaps.cli:main"


def test_cycle_type_search_on_dihedral_is_input_error(tmp_path):
    (tmp_path / "d8.json").write_text(json.dumps(
        {"degree": 8, "generators": ["(1,2,3,4,5,6,7,8)", "(1,8)(2,7)(3,6)(4,5)"]}))
    proc = run_module(["search", "--class", "1", "--group", "d8.json",
                       "--up-to-cycle-type"], cwd=tmp_path)
    _assert_input_error(proc)
    assert "Sym(n) or Alt(n)" in proc.stderr


def test_spec_images_as_list_is_input_error(tmp_path):
    obj = json.loads(spec_json())
    obj["images"] = list(obj["images"].values())
    (tmp_path / "spec.json").write_text(json.dumps(obj))
    proc = run_module(["build", "--spec", "spec.json"], cwd=tmp_path)
    _assert_input_error(proc)
    assert "images" in proc.stderr


def test_group_as_list_is_input_error(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps([[1, 0, 2], [0, 2, 1]]))
    proc = run_module(["search", "--class", "1", "--group", "g.json"], cwd=tmp_path)
    _assert_input_error(proc)
    assert "group" in proc.stderr


def test_realize_without_degree_is_input_error():
    proc = run_module(["realize", "--family", "sym", "--class", "1"])
    _assert_input_error(proc)
    assert "--n" in proc.stderr


def test_map_without_r2_is_input_error(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps({"r0": [1, 0], "r1": [0, 1],
                                                 "flags": 2}))
    proc = run_module(["info", "m.json"], cwd=tmp_path)
    _assert_input_error(proc)
    assert "r2" in proc.stderr and proc.stderr.strip() != "error: 'r2'"


def test_spec_without_group_is_input_error(tmp_path):
    obj = json.loads(spec_json())
    del obj["group"]
    (tmp_path / "spec.json").write_text(json.dumps(obj))
    proc = run_module(["build", "--spec", "spec.json"], cwd=tmp_path)
    _assert_input_error(proc)
    assert '"group" field' in proc.stderr


def test_search_unknown_class_is_input_error(tmp_path):
    (tmp_path / "g.json").write_text(json.dumps(
        {"degree": 4, "generators": ["(1,2,3,4)", "(1,2)"]}))
    proc = run_module(["search", "--class", "9", "--group", "g.json"], cwd=tmp_path)
    _assert_input_error(proc)
    assert "unknown class label '9'" in proc.stderr
    assert "2Pex" in proc.stderr and "5P" in proc.stderr


def _assert_input_error_in_process(capsys, args, *needles):
    """The in-process form of :func:`_assert_input_error`: exit 2 and one
    ``error:`` line that contains every needle."""
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert code == 2, (out, err)
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    for needle in needles:
        assert needle in lines[0], err


@pytest.mark.parametrize("group, needles", [
    ({"degree": 3, "generators": []}, ('"generators"',)),
    ({"degree": "3", "generators": ["(1,2,3)", "(1,2)"]}, ('"degree"', "'3'")),
    ({"degree": 3, "generators": 5}, ('"generators"',)),
    ({"family": "gpef", "p": 3, "e": 1}, ("gpef", "'f'")),
    ({"degree": 3, "generators": [[1, 0]]}, ("[1, 0]", "3 images")),
], ids=["no-generators", "string-degree", "generators-not-a-list",
        "gpef-without-f", "generator-shorter-than-degree"])
def test_malformed_group_file_is_input_error(capsys, tmp_path, group, needles):
    (tmp_path / "g.json").write_text(json.dumps(group))
    _assert_input_error_in_process(
        capsys, ["search", "--class", "1", "--group", str(tmp_path / "g.json")],
        *needles)


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_search_limit_below_one_is_input_error(capsys, tmp_path, limit):
    (tmp_path / "s3.json").write_text(json.dumps(
        {"degree": 3, "generators": ["(1,2,3)", "(1,2)"]}))
    _assert_input_error_in_process(
        capsys, ["search", "--class", "1", "--group", str(tmp_path / "s3.json"),
                 "--limit", limit], "limit", limit)


@pytest.mark.parametrize("family, label", [
    ("sym", "1"), ("sym-even", "1"), ("alt", "1"), ("alt", "2ex")])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_realize_degree_below_one_is_input_error(capsys, family, label, n):
    _assert_input_error_in_process(
        capsys, ["realize", "--family", family, "--class", label, "--n", n],
        "degree", n)


def test_spec_ops_not_a_string_is_input_error(capsys, tmp_path):
    obj = json.loads(spec_json())
    obj["ops"] = 5
    (tmp_path / "spec.json").write_text(json.dumps(obj))
    _assert_input_error_in_process(
        capsys, ["build", "--spec", str(tmp_path / "spec.json")], '"ops"')


def test_realize_alt_a10_prints_the_table_built_spec(capsys):
    # the bytes printed when the spec was built on the 1,814,400-element table
    code, out = run_cli(["realize", "--family", "alt", "--class", "2", "--n", "10"],
                        capsys=capsys)
    assert code == 0
    assert out == (
        '{"class": "2", "group": {"degree": 10, "generators": ["(1,2,3)", '
        '"(2,3,4,5,6,7,8,9,10)"]}, "images": {"S1": "(1,2)(3,4)", "S2": '
        '"(2,3)(4,5)(6,7)(8,9)", "S3": "(3,4)(5,6)(7,8)(9,10)"}, "label": "2", '
        '"ops": ""}\n')


def test_realize_alt_beyond_the_table_cap(capsys):
    # |A_12| = 239,500,800: the spec needs no table, the map does
    code, out = run_cli(["realize", "--family", "alt", "--class", "2", "--n", "12"],
                        capsys=capsys)
    assert code == 0
    assert json.loads(out)["group"]["degree"] == 12
    _assert_input_error_in_process(
        capsys, ["realize", "--family", "alt", "--class", "2", "--n", "12",
                 "--emit-map"], "cap of 10000000")


@pytest.mark.parametrize("q", ["0", "1"])
def test_realize_psl2_q_not_a_prime_power_is_input_error(capsys, q):
    _assert_input_error_in_process(
        capsys, ["realize", "--family", "psl2", "--q", q], f"{q} is not a prime power")


def test_realize_nilpotent_chiral_over_cap_is_input_error():
    # order 2^61: refused before the generation test closes the group
    proc = run_module(["realize", "--family", "nilpotent-chiral", "--e", "30"],
                      timeout=60)
    _assert_input_error(proc)
    assert "cap of 10000000" in proc.stderr


def test_realize_sym_even_names_the_degree_asked_for(capsys):
    code, out = run_cli(["realize", "--family", "sym-even", "--class", "1",
                         "--n", "1"], capsys=capsys)
    assert code == 0
    reason = json.loads(out)["unrealizable"]
    assert "S_1" in reason and "S_5" not in reason
