import json

from jstretch.cli import main

THICKLINE = """
ring R vars x,y,z char 32003 order grevlex
relations R (x^3, x*z, y*z)
ideal I in R (x, y)
assert I G_d AN_minus depth_RI=1
analyze I seed=7 trials=2
"""


def write(tmp_path, text, name="session.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_json(tmp_path, capsys):
    code = main(["analyze", write(tmp_path, THICKLINE), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["I"]["r_J"] == 2
    assert payload["I"]["s_J"] == 2
    assert payload["I"]["flags"]["j_stretched"] is True
    assert payload["I"]["provenance"]["seed"] == 7


def test_analyze_human_matches_json_numbers(tmp_path, capsys):
    path = write(tmp_path, THICKLINE)
    assert main(["analyze", path, "--json"]) == 0
    as_json = json.loads(capsys.readouterr().out)["I"]
    assert main(["analyze", path]) == 0
    human = capsys.readouterr().out
    for key in ("r_J", "s_J", "j_mult", "hilbert_K"):
        assert f"{key} = {as_json[key]}" in human


def test_parse_error_exit_code(tmp_path, capsys):
    code = main(["analyze", write(tmp_path, "ideal I in R (x)\n")])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # reduction number 25 exceeds the default search cap of 20
    text = (
        "ring R vars x,y,z\n"
        "relations R (x^26, x*z, y*z)\n"
        "ideal I in R (x, y)\n"
        "analyze I trials=1\n"
    )
    code = main(["analyze", write(tmp_path, text)])
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_registry_ok(capsys):
    code = main(["registry", "thickline", "--r", "2", "--trials", "2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["r_J"] == 2
    assert payload["diffs"] == []


def test_registry_unknown_id(capsys):
    assert main(["registry", "no-such-example"]) == 2


def test_speclab_subcommand(tmp_path, capsys):
    path = write(tmp_path, THICKLINE)
    code = main(["speclab", path, "--quantity", "sJ", "--trials", "4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["I"]["modal"] == 2
    assert payload["I"]["stability"] == 1.0


def test_fiber_subcommand_with_target(tmp_path, capsys):
    text = THICKLINE + (
        "ring G vars x,y,z,T1,T2\n"
        "ideal Q in G (x, y, z*T2, T1^3, z*T1)\n"
    )
    path = write(tmp_path, text)
    code = main(["fiber", path, "--target", "Q", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["I"]["matches_target"] is True
    assert payload["I"]["analytic_spread"] == 1
    assert payload["I"]["gr_depth"] == payload["I"]["gr_dimension"] == 1


def test_fiber_target_mismatch_exit_code(tmp_path, capsys):
    text = THICKLINE + (
        "ring G vars x,y,z,T1,T2\n"
        "ideal Q in G (x, y, T1^3)\n"
    )
    path = write(tmp_path, text)
    assert main(["fiber", path, "--target", "Q"]) == 4
