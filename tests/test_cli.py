import json
import os

import pytest

from cayleyac import cli
from cayleyac.cli import (GroupSpecError, build_group, parse_group_spec,
                          run_command)


def test_parse_simple_specs():
    spec = parse_group_spec("kind=heisenberg e=1")
    assert spec.kind == "heisenberg" and spec.params["e"] == 1
    spec = parse_group_spec("kind=heisenberg e=2 saturation.x_offsets=[1]")
    g = build_group(spec)
    assert "xz1" in g.alphabet.names
    spec = parse_group_spec("kind=sol matrix=[[2,1],[1,1]]")
    assert build_group(spec).matrix == ((2, 1), (1, 1))


def test_fingerprint_ignores_comments_and_whitespace():
    a = parse_group_spec("kind=heisenberg e=1 gens=plain")
    b = parse_group_spec("# a nil lattice\nkind=heisenberg\n   e=1  gens=plain\n")
    assert a.fingerprint == b.fingerprint
    assert parse_group_spec(a.serialize()).serialize() == a.serialize()


def test_parse_errors_name_the_field():
    # field values are validated when the group is built
    with pytest.raises(GroupSpecError) as info:
        build_group(parse_group_spec("kind=wat"))
    assert info.value.record()["error"] == "UnknownKind"
    with pytest.raises(GroupSpecError) as info:
        build_group(parse_group_spec("kind=heisenberg"))
    assert info.value.record()["field"] == "e"
    with pytest.raises(GroupSpecError) as info:
        build_group(parse_group_spec("kind=heisenberg e=banana"))
    assert info.value.record()["error"] == "InvalidValue"
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("e=1")
    assert info.value.record()["field"] == "kind"
    for text in ("kind=triangle p=0 q=3 r=7", "kind=triangle p=-2 q=3 r=7"):
        with pytest.raises(GroupSpecError) as info:
            build_group(parse_group_spec(text))
        assert info.value.record()["error"] == "InvalidValue"
        assert info.value.record()["field"] == "p,q,r"


def _write(tmp_path, name, text):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def test_area_command(capsys):
    assert run_command(["area", "--word", "x y x- y-", "--lattice", "square"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["area"] == 1
    assert run_command(["area", "--word", "t x- y-", "--lattice", "hex"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["area"] == 1


def test_area_rejects_open_words(capsys):
    assert run_command(["area", "--word", "x y", "--lattice", "square"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == "NotClosed"


def test_ball_and_ac_check(tmp_path, capsys):
    group_file = _write(tmp_path, "n1.group", "kind=heisenberg e=1 gens=plain name=n1xy")
    assert run_command(["ball", "--group", group_file, "--radius", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["spheres"][0:2] == [1, 4]

    out_csv = os.path.join(tmp_path, "prof.csv")
    assert run_command(["ac-check", "--group", group_file, "--m", "2",
                        "--radius", "8", "--out", out_csv]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["k_values"][-1] >= 2
    assert run_command(["report", "--profile", out_csv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] == 9

    out_json = os.path.join(tmp_path, "prof.json")
    assert run_command(["ac-check", "--group", group_file, "--m", "2",
                        "--radius", "8", "--out", out_json]) == 0
    capsys.readouterr()
    assert run_command(["report", "--profile", out_json]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 9


_HEADER = "group,gens,m,n,pairs,K,mean,absent_under_cap\n"


@pytest.mark.parametrize("name, text, detail", [
    ("short_row.csv", _HEADER + "g,x y,2,0,0,-1\n", ""),
    ("empty.csv", "", ""),
    ("rows_not_a_list.json", '{"group": "g", "gens": "x y", "m": 2, "rows": 5}', ""),
    ("two_profiles.csv", _HEADER + "g,x y,2,0,0,-1,0.000000,0\n"
                                   "g,x y,2,1,6,2,1.000000,0\n"
                                   "h,x y,3,0,0,-1,0.000000,0\n"
                                   "h,x y,3,1,8,5,2.000000,0\n", "row 3"),
], ids=["csv_row_of_4_fields", "empty_csv", "json_rows_5", "csv_of_two_profiles"])
def test_report_malformed_profile_is_an_error_record(tmp_path, capsys, name, text, detail):
    """A malformed profile ends in one ValueError record, not a traceback;
    a CSV of two profiles names the first row of the second."""
    profile = _write(tmp_path, name, text)
    assert run_command(["report", "--profile", profile]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == "ValueError"
    assert detail in record["detail"]


def test_commands_build_the_group_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting_build_group(spec):
        calls.append(spec.kind)
        return build_group(spec)

    monkeypatch.setattr(cli, "build_group", counting_build_group)
    nil = _write(tmp_path, "n1.group", "kind=heisenberg e=1 gens=plain")
    surface = _write(tmp_path, "s2.group", "kind=surface genus=2")
    for argv in (["ball", "--group", nil, "--radius", "3"],
                 ["ac-check", "--group", nil, "--radius", "3",
                  "--out", os.path.join(tmp_path, "prof.csv")],
                 ["geodesic", "--group", nil, "--element", "1,0,0"],
                 ["dehn", "--group", surface, "--word", "a1 a1-"]):
        calls.clear()
        assert run_command(argv) == 0
        capsys.readouterr()
        assert len(calls) == 1, argv[0]


def test_cache_dir_reuse(tmp_path, capsys):
    group_file = _write(tmp_path, "z2.group", "kind=lattice rank=2")
    cache = os.path.join(tmp_path, "cache")
    for _ in range(2):
        assert run_command(["--cache-dir", cache, "ball", "--group", group_file,
                            "--radius", "5"]) == 0
        capsys.readouterr()
    assert len(os.listdir(cache)) == 1


def _damage_and_rebuild(tmp_path, capsys, spec, radius, damages):
    """Build a cached ball through the CLI, then replace the cache file by
    each damaged copy and require the same spheres and a rewritten file."""
    os.makedirs(tmp_path)
    group_file = _write(tmp_path, "g.group", spec)
    cache = os.path.join(tmp_path, "cache")
    argv = ["--cache-dir", cache, "ball", "--group", group_file, "--radius", str(radius)]
    assert run_command(argv) == 0
    spheres = json.loads(capsys.readouterr().out)["spheres"]
    (name,) = os.listdir(cache)
    path = os.path.join(cache, name)
    with open(path, "rb") as fh:
        good = fh.read()
    for damage in damages:
        with open(path, "wb") as fh:
            fh.write(damage(good))
        assert run_command(argv) == 0
        assert json.loads(capsys.readouterr().out)["spheres"] == spheres
        with open(path, "rb") as fh:
            assert fh.read() == good


def _bad_letter(data):
    # first key byte: after the 17-byte header and the identity's record
    # (2-byte length, empty key, 16 bytes), a letter index out of range
    out = bytearray(data)
    out[17 + 18 + 2] = 0xFF
    return bytes(out)


def _length_past_radius(data):
    # the last record's 16 field bytes end the file and begin with its
    # length: 6, past the radius 5 of the ball the test caches
    return data[:-16] + (6).to_bytes(4, "big") + data[-12:]


def _header_radius_6(data):
    # the header's radius follows the 4-byte magic and the 2-byte version
    return data[:6] + (6).to_bytes(4, "big") + data[10:]


def test_damaged_cache_is_rebuilt(tmp_path, capsys):
    cuts = [lambda data, cut=cut: data[:cut] for cut in (10, 17, 40)]
    cuts += [lambda data: data[: len(data) // 2], lambda data: data[:-1],
             _length_past_radius, _header_radius_6]
    _damage_and_rebuild(tmp_path / "nil", capsys, "kind=heisenberg e=1 gens=plain", 5, cuts)
    _damage_and_rebuild(tmp_path / "surface", capsys, "kind=surface genus=2", 2,
                        [_bad_letter])


def test_dehn_command(tmp_path, capsys):
    group_file = _write(tmp_path, "s2.group", "kind=surface genus=2")
    assert run_command(["dehn", "--group", group_file, "--word",
                        "a1 b1 a1- b1- a2 b2 a2- b2-"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reduced"] == "" and out["length"] == 0


def test_geodesic_command(tmp_path, capsys):
    group_file = _write(tmp_path, "n1.group", "kind=heisenberg e=1 gens=plain")
    assert run_command(["geodesic", "--group", group_file, "--element", "0,0,25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["length"] == 20


def test_unknown_group_exit_code(tmp_path, capsys):
    group_file = _write(tmp_path, "bad.group", "kind=wat")
    assert run_command(["ball", "--group", group_file, "--radius", "1"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == "UnknownKind"


@pytest.mark.parametrize("case, error", [
    ("missing_group", "FileNotFoundError"),
    ("missing_profile", "FileNotFoundError"),
    ("out_in_missing_dir", "FileNotFoundError"),
    ("cache_dir_is_a_file", "FileExistsError"),
    ("cache_path_is_a_dir", "IsADirectoryError"),
])
def test_os_errors_are_error_records(tmp_path, capsys, case, error):
    """A file that cannot be read or written ends in one JSON record naming
    the OS error's class, with exit status 1, not in a traceback."""
    nil = _write(tmp_path, "n1.group", "kind=heisenberg e=1 gens=plain")
    missing = os.path.join(tmp_path, "missing")
    cache = os.path.join(tmp_path, "cache")
    argv = {
        "missing_group": ["ball", "--group", missing, "--radius", "1"],
        "missing_profile": ["report", "--profile", missing + ".csv"],
        "out_in_missing_dir": ["ac-check", "--group", nil, "--radius", "2",
                               "--out", os.path.join(missing, "prof.csv")],
        "cache_dir_is_a_file": ["--cache-dir", nil, "ball", "--group", nil, "--radius", "1"],
        "cache_path_is_a_dir": ["--cache-dir", cache, "ball", "--group", nil, "--radius", "1"],
    }[case]
    if case == "cache_path_is_a_dir":
        group = build_group(parse_group_spec("kind=heisenberg e=1 gens=plain"))
        os.makedirs(os.path.join(
            cache, f"{group.fingerprint()}__{group.gens_fingerprint()}__r1.ball"))
    assert run_command(argv) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    record = json.loads(out)
    assert record["error"] == error and record["detail"]


def test_non_positive_sizes_are_error_records(tmp_path, capsys):
    nil = _write(tmp_path, "n1.group", "kind=heisenberg e=1 gens=plain")
    out = os.path.join(tmp_path, "prof.csv")
    assert run_command(["ball", "--group", nil, "--radius", "-1"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["error"] == "RadiusUnavailable"
    for m in ("0", "-1"):
        assert run_command(["ac-check", "--group", nil, "--m", m,
                            "--radius", "3", "--out", out]) == 1
        record = json.loads(capsys.readouterr().out)
        assert (record["error"], record["field"]) == ("InvalidValue", "m")
    assert not os.path.exists(out)
    for radius in ("0", "-1"):
        ext = _write(tmp_path, "ext.group",
                     f"kind=central_extension charges=[1] constants_radius={radius}")
        assert run_command(["ball", "--group", ext, "--radius", "2"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert (record["error"], record["field"]) == ("InvalidValue", "constants_radius")
    for text, fld in (("kind=surface genus=1", "genus"), ("kind=lattice rank=0", "rank"),
                      ("kind=free rank=-1", "rank")):
        path = _write(tmp_path, "size.group", text)
        assert run_command(["ball", "--group", path, "--radius", "2"]) == 1, text
        record = json.loads(capsys.readouterr().out)
        assert (record["error"], record["field"]) == ("InvalidValue", fld), text


def test_central_extension_fields_are_error_records(tmp_path, capsys):
    for entry, fld in (("base_genus=x", "base_genus"), ("base_genus=1", "base_genus"),
                       ("constants_seed=x", "constants_seed"),
                       ("constants_seed=[1]", "constants_seed"),
                       ("budget=x", "budget"), ("budget=-1", "budget"),
                       ('charges=["a"]', "charges"), ("charges=[1.5]", "charges")):
        ext = _write(tmp_path, "ext.group", f"kind=central_extension charges=[1] {entry}")
        assert run_command(["ball", "--group", ext, "--radius", "1"]) == 1, entry
        record = json.loads(capsys.readouterr().out)
        assert (record["error"], record["field"]) == ("InvalidValue", fld), entry


@pytest.mark.parametrize("charges", ["[0]", "[]", "[0,1]", "[2]"])
def test_central_letters_must_generate_the_centre(tmp_path, capsys, charges):
    """Charges whose central letters generate no central lattice, or only a
    proper subgroup of it ([0, 1] gives c1 = (0, 1); [2] gives c1 = (2,),
    of index 2), end in one error record, not in a ball of another group."""
    ext = _write(tmp_path, "ext.group",
                 f"kind=central_extension charges={charges} constants_radius=2 budget=1000")
    assert run_command(["ball", "--group", ext, "--radius", "1"]) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    record = json.loads(out)
    assert (record["error"], record["field"]) == ("InvalidValue", "charges")


@pytest.mark.parametrize("charges, size", [
    ("[0]", "infinite index in Z^1"), ("[0,1]", "infinite index in Z^2"),
    ("[2]", "index 2 in Z^1"),
])
def test_central_charges_refused_before_any_ball(monkeypatch, charges, size):
    """The central letters span the multiples of the relator charge, so a
    charge list that cannot generate the centre is refused from the charges
    alone, at the default budget, before a surface ball is built."""
    def no_ball(*args):
        raise AssertionError("a ball was built")

    monkeypatch.setattr(cli, "build_ball", no_ball)
    with pytest.raises(GroupSpecError) as info:
        build_group(parse_group_spec(f"kind=central_extension charges={charges}"))
    assert info.value.record() == {
        "error": "InvalidValue", "field": "charges",
        "detail": f"the central letters generate a subgroup of {size}, not all of it"}
