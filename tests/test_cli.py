import json
import os

import pytest

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
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("kind=wat")
    assert info.value.record()["error"] == "UnknownKind"
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("kind=heisenberg")
    assert info.value.record()["field"] == "e"
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("kind=heisenberg e=banana")
    assert info.value.record()["error"] == "InvalidValue"
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("e=1")
    assert info.value.record()["field"] == "kind"


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


def test_cache_dir_reuse(tmp_path, capsys):
    group_file = _write(tmp_path, "z2.group", "kind=lattice rank=2")
    cache = os.path.join(tmp_path, "cache")
    for _ in range(2):
        assert run_command(["--cache-dir", cache, "ball", "--group", group_file,
                            "--radius", "5"]) == 0
        capsys.readouterr()
    assert len(os.listdir(cache)) == 1


def test_damaged_cache_is_rebuilt(tmp_path, capsys):
    group_file = _write(tmp_path, "n1.group", "kind=heisenberg e=1 gens=plain")
    cache = os.path.join(tmp_path, "cache")
    argv = ["--cache-dir", cache, "ball", "--group", group_file, "--radius", "5"]
    assert run_command(argv) == 0
    spheres = json.loads(capsys.readouterr().out)["spheres"]
    (name,) = os.listdir(cache)
    path = os.path.join(cache, name)
    with open(path, "rb") as fh:
        good = fh.read()
    for cut in (10, 17, 40, len(good) // 2, len(good) - 1):
        with open(path, "wb") as fh:
            fh.write(good[:cut])
        assert run_command(argv) == 0
        assert json.loads(capsys.readouterr().out)["spheres"] == spheres
        with open(path, "rb") as fh:
            assert fh.read() == good


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
