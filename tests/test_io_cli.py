import hashlib
import json
import pathlib
import random
import re

import pytest

from conormal import io, cli, lefschetz
from conormal.cellcx import POINT
from conormal.qlinalg import euler
from conormal.sheaf import CellularSheaf, euler_char, constant
from conormal.mueu import mueu, degree, set_negative_control
from conormal.checks import run_checks
from conormal.randgen import random_complex, random_sheaf, hollow_triangle
from conormal.tracekernel import TraceKernel


TRI = {
    "version": 1,
    "complex": {"simplices": [[0, 1], [1, 2], [0, 2]]},
    "sheaves": {
        "k": "constant",
        "dk": {"dual_of": "k"},
        "edge": {"extend_by_zero": {"of": "k", "upset": ["0.1"]}},
    },
    "maps": {
        "rot": {"vertex_map": {"0": "1", "1": "2", "2": "0"}},
        "refl": {"vertex_map": {"0": "0", "1": "2", "2": "1"}},
        "ident": {"identity": True},
        "pt": {"target": "point"},
    },
    "cycles": {"c": {"0": 1, "0.1": -1}},
    "kernels": {"T": {"tk": "k"},
                "Tw": {"twist": {"of": {"tk": "k"}, "d": 1}}},
    "lefschetz": {
        "L_id": {"map": "ident", "sheaf": "k"},
        "L_rot": {"map": "rot", "sheaf": "k"},
        "L_refl": {"map": "refl", "sheaf": "k"},
    },
}


def write(tmp_path, doc, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# parsing and round trips

def test_parse_instance():
    inst = io.parse_instance(TRI)
    assert len(inst.complex) == 6
    assert euler_char(inst.sheaves["k"]) == 0
    assert euler_char(inst.sheaves["edge"]) == -1
    assert inst.maps["rot"]("0.1") == "1.2"
    assert degree(inst.cycles["c"]) == 0
    assert inst.kernels["T"].euler_class == mueu(inst.sheaves["k"])


def test_sheaf_round_trip():
    rng = random.Random(73)
    for _ in range(10):
        cx = random_complex(rng, max_dim=2, max_cells=15)
        f = random_sheaf(rng, cx, max_pieces=2)
        doc = {"complex": io.describe_complex(cx),
               "sheaves": {"f": io.describe_sheaf(f)}}
        back = io.parse_instance(json.loads(json.dumps(doc)))
        g = back.sheaves["f"]
        assert g.validate() == []
        assert euler_char(g) == euler_char(f)
        assert mueu(g).weights == {str(c): w for c, w in mueu(f).weights.items()}


def test_poset_complex_round_trip():
    cx = hollow_triangle()
    back, _ = io.parse_complex(io.describe_complex(cx))
    assert back.same_as(cx)


def test_parse_errors():
    with pytest.raises(io.ParseError):
        io.parse_instance([])
    with pytest.raises(io.ParseError):
        io.parse_instance({"complex": {}})
    with pytest.raises(io.ParseError):
        io.parse_instance({"complex": {"simplices": [[0, 1]]},
                           "sheaves": {"f": {"dual_of": "missing"}}})
    with pytest.raises(io.ParseError):
        io.parse_fraction("1/0")
    with pytest.raises(io.ParseError):
        io.parse_matrix([[1], [2, 3]])


def test_fraction_round_trip():
    from fractions import Fraction
    for q in (Fraction(3, 4), Fraction(-7), Fraction(0)):
        assert io.parse_fraction(str(q)) == q


# ---------------------------------------------------------------------------
# CLI exit codes and output

def test_cli_validate_ok(tmp_path, capsys):
    path = write(tmp_path, TRI)
    assert cli.main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_flipped_incidence(tmp_path, capsys):
    # flip one incidence sign inside a codim-2 interval of the triangle
    from conormal.randgen import full_simplex
    doc = {"complex": io.describe_complex(full_simplex(3))}
    for entry in doc["complex"]["poset"]["incidence"]:
        if entry[0] == "0.1" and entry[1] == "0":
            entry[2] = -entry[2]
    path = write(tmp_path, doc)
    assert cli.main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "0.1" in out  # the offending pair is named


_TRI_CELLS = ["0", "1", "2", "0.1", "1.2", "0.2"]


def _with(**changes):
    doc = json.loads(json.dumps(TRI))
    for key, value in changes.items():
        doc[key] = {**doc.get(key, {}), **value}
    return doc


_TWICE = {"stalks": {"0": {"dims": {"0": 1}}, "0.1": {"dims": {"0": 1}}},
          "restrictions": [{"from": "0", "to": "0.1", "maps": {"0": [[1]]}},
                           {"from": "0", "to": "0.1", "maps": {"0": [[0]]}}]}
_ZERO_D_WRONG_SHAPE = {"dims": {"0": 1, "1": 1}, "d": {"0": [[0, 0, 0]]}}


def test_repeated_restriction_is_a_parse_error_naming_the_pair():
    with pytest.raises(io.ParseError, match=r"^restriction '0' -> '0.1' is given twice$"):
        io.parse_sheaf(_TWICE, io.parse_complex(TRI["complex"])[0], {})


def test_zero_differential_of_the_wrong_shape_is_a_parse_error():
    with pytest.raises(io.ParseError, match=r"^bad stalk complex: differential at degree 0 "
                                            r"has shape 1x3, expected 1x1$"):
        io.parse_vect_complex(_ZERO_D_WRONG_SHAPE)


@pytest.mark.parametrize("spec, message", [
    pytest.param({"map": ["ident"], "sheaf": "k"}, "'map' must name a map, got ['ident']",
                 id="map-list"),
    pytest.param("L", "a lefschetz instance must be an object", id="spec-string"),
    pytest.param({"map": "ident"}, "'sheaf' must name a sheaf, got None", id="sheaf-missing"),
    pytest.param({"map": "ident", "sheaf": "nope"},
                 "lefschetz instance references unknown sheaf 'nope'", id="sheaf-unknown"),
])
def test_cli_lefschetz_reference_errors_name_the_field(tmp_path, capsys, spec, message):
    assert cli.main(["validate", write(tmp_path, _with(lefschetz={"L": spec}))]) == 3
    assert capsys.readouterr().err == "parse error: %s\n" % message


@pytest.mark.parametrize("doc", [
    pytest.param(_with(sheaves={"s": {"shift_of": "k", "d": "x"}}), id="shift-d"),
    pytest.param(_with(kernels={"T": {"twist": {"of": {"tk": "k"}, "d": "q"}}}),
                 id="twist-d"),
    pytest.param(_with(kernels={"T": {"twist": [1]}}), id="twist-list"),
    pytest.param(_with(sheaves={"s": {"stalks": [1, 2]}}), id="stalks-list"),
    pytest.param(_with(sheaves={"s": {"stalks": {"0": 7}}}), id="stalk-int"),
    pytest.param(_with(sheaves={"s": {"stalks": {"0": {"dims": [1]}}}}), id="dims-list"),
    pytest.param(_with(sheaves={"s": {"stalks": {"0": {"dims": {"0": "one"}}}}}),
                 id="dims-value"),
    pytest.param(_with(sheaves={"s": {"stalks": {"0": {"dims": {"0": 1, "1": 1},
                                                       "d": [[1]]}}}}), id="d-list"),
    pytest.param(_with(sheaves={"s": {
        "stalks": {"0": {"dims": {"0": 1}}, "0.1": {"dims": {"0": 1}}},
        "restrictions": [{"from": "0", "to": "0.1", "maps": [[1]]}]}}), id="maps-list"),
    pytest.param(_with(sheaves={"s": {"extend_by_zero": "k"}}), id="extend-string"),
    pytest.param(_with(maps={"m": {"cells": {"0": "0"}, "signs": {"0": "plus"}}}),
                 id="map-sign"),
    pytest.param(_with(lefschetz={"L": {"map": "ident", "sheaf": "k", "phi": [1]}}),
                 id="phi-list"),
    pytest.param(_with(lefschetz={"L": {"map": "ident", "sheaf": "k",
                                        "phi": {"nope": {"0": [[1]]}}}}),
                 id="phi-unknown-cell"),
    pytest.param({**TRI, "cycles": [1]}, id="cycles-list"),
    pytest.param(_with(sheaves={"s": {"stalks": {"0": {"dims": {"0": -1}}}}}),
                 id="dims-negative"),
    pytest.param(_with(sheaves={"s": {"dual_of": ["k"]}}), id="dual-of-list"),
    pytest.param(_with(kernels={"T": {"tk": {"k": 1}}}), id="tk-object"),
    pytest.param(_with(sheaves={"s": {"stalks": {}, "restrictions": 5}}),
                 id="restrictions-int"),
    pytest.param(_with(sheaves={"s": {"extend_by_zero": {"upset": 5}}}), id="upset-int"),
    pytest.param(_with(sheaves={"s": {
        "stalks": {"0": {"dims": {"0": 1}}, "0.1": {"dims": {"0": 1}}},
        "restrictions": [{"from": "0", "to": "0.1", "maps": {"0": [[1, 1]]}}]}}),
        id="restriction-shape"),
    pytest.param(_with(kernels={"T": {"twist": {"of": {"tk": "k"}, "d": 1.5}}}),
                 id="twist-d-float"),
    pytest.param(_with(sheaves={"s": {"stalks": {"0": {"dims": {"0": 1.7}}}}}),
                 id="dims-float"),
    # a kernel node names one operation
    pytest.param(_with(kernels={"T": {"tk": "k", "compose": [1, 2]}}), id="kernel-two-keys"),
    # the identity map of TRI, valid with the sign 1 in place of true
    pytest.param(_with(maps={"m": {"cells": {c: c for c in _TRI_CELLS},
                                   "signs": {**{c: 1 for c in _TRI_CELLS}, "0.1": True}}}),
                 id="map-sign-bool"),
    # a poset's cell dims and incidence signs are integers, not floats or booleans
    pytest.param({"complex": {"poset": {"cells": {"a": 0.7, "b": False, "e": "1"},
                                        "incidence": [["e", "a", 1.9], ["e", "b", -1]]}},
                  "sheaves": {"k": "constant"}}, id="poset-float-bool"),
    pytest.param({"complex": {"poset": {"cells": {"a": 0, "b": 0, "e": 1},
                                        "incidence": [["e", "a", 1], ["e", "b", True]]}}},
                 id="poset-sign-bool"),
    # collapsing a cell of dimension -1 to the point raised its dimension
    pytest.param({"complex": {"poset": {"cells": {"a": 0, "E": -1}}},
                  "maps": {"pt": {"target": "point"}}}, id="poset-dim-negative"),
    # the vertex 0.5 and the edge 0.5 would share the id "0.5"
    pytest.param({"complex": {"simplices": [[0], [0, 5], [0.5]]}}, id="simplex-float"),
    pytest.param({"complex": {"simplices": [["a.b"]]}}, id="simplex-dotted"),
    pytest.param({"complex": {"simplices": [[False, 1]]}}, id="simplex-bool"),
    pytest.param({**TRI, "version": True}, id="version-bool"),
    # phi at a vertex maps the 1-dim stalk F(f(0)) into the 1-dim F(0)
    pytest.param(_with(lefschetz={"L": {"map": "ident", "sheaf": "k",
                                        "phi": {"0": {"0": [[1], [2]]}}}}), id="phi-shape"),
    # a map's target is "self" or "point" in every form
    pytest.param(_with(maps={"m": {"cells": {c: c for c in _TRI_CELLS},
                                   "signs": {c: 1 for c in _TRI_CELLS}, "target": "bogus"}}),
                 id="map-cells-target"),
    pytest.param(_with(maps={"m": {"identity": True, "target": [1]}}), id="map-identity-target"),
    # a rational in exponent notation, which Fraction would expand in full
    pytest.param(_with(sheaves={"s": {
        "stalks": {"0": {"dims": {"0": 1}}, "0.1": {"dims": {"0": 1}}},
        "restrictions": [{"from": "0", "to": "0.1", "maps": {"0": [["1e5"]]}}]}}),
        id="rational-exponent"),
    # a restriction given twice, the second one zero
    pytest.param(_with(sheaves={"s": _TWICE}), id="restriction-twice"),
    # a zero differential is still a 1x1 map
    pytest.param(_with(sheaves={"s": {"stalks": {"0": _ZERO_D_WRONG_SHAPE}}}),
                 id="zero-d-shape"),
])
def test_cli_malformed_instance_is_a_parse_error(tmp_path, capsys, doc):
    assert cli.main(["validate", write(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "Traceback" not in err


# the incidence jumps two dimensions, which sections() cannot represent
_JUMP = {"complex": {"poset": {"cells": {"v": 0, "f": 2},
                               "incidence": [["f", "v", 1]]}},
         "sheaves": {"k": "constant", "dk": {"dual_of": "k"}},
         "kernels": {"T": {"tk": "k"}}}
# an explicit sheaf whose restriction has the right shape but does not
# commute with the stalk differentials
_NOT_A_CHAIN_MAP = {
    "complex": {"simplices": [[0, 1]]},
    "sheaves": {"k": {"stalks": {"0": {"dims": {"0": 1, "1": 1}, "d": {"0": [[1]]}},
                                 "0.1": {"dims": {"0": 1, "1": 1}}},
                      "restrictions": [{"from": "0", "to": "0.1", "maps": {"1": [[1]]}}]},
                "dk": {"dual_of": "k"}},
    "kernels": {"T": {"tk": "k"}}}
_COMMANDS = [["chi", "k"], ["cc", "k"], ["dual", "k"], ["expand", "T"], ["compose", "k", "k"]]


@pytest.mark.parametrize("command, doc, problem", [
    *[pytest.param(c, _JUMP, "not codimension 1", id="command%d" % i)
      for i, c in enumerate(_COMMANDS)],
    *[pytest.param(c, _NOT_A_CHAIN_MAP, "sheaf k: restriction ('0', '0.1') is not a chain map",
                   id="not-a-chain-map-%s" % c[0]) for c in _COMMANDS]])
def test_cli_evaluating_commands_validate_the_complex(tmp_path, capsys, command, doc, problem):
    path = write(tmp_path, doc)
    assert cli.main([command[0], path, *command[1:]]) == 1
    out = capsys.readouterr()
    assert out.err.startswith("validation failure:")
    assert problem in out.err and "Traceback" not in out.err
    assert out.out == ""
    assert cli.main(["validate", path]) == 1
    assert problem in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    pytest.param(["chi"], id="missing-argument"),
    pytest.param(["bogus"], id="unknown-command"),
    pytest.param(["check", "--cases", "x"], id="bad-option-value"),
    pytest.param(["check", "--cases", "0"], id="cases-zero"),
    pytest.param(["check", "--cases", "-3"], id="cases-negative"),
    pytest.param(["check", "--max-dim", "-1"], id="max-dim-negative"),
    pytest.param(["check", "--max-cells", "0"], id="max-cells-zero"),
    pytest.param(["check", "--max-cells", "2.5"], id="max-cells-float")])
def test_cli_usage_error_is_a_parse_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 3
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--help"])
    assert e.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["validate", str(p)]) == 3


@pytest.mark.parametrize("content", [
    pytest.param('{"complex": {"simplices": [["\xe9"]]}}'.encode("latin-1"), id="not-utf8"),
    pytest.param(b"[" * 200000, id="nested-too-deep")])
def test_cli_unreadable_json_is_a_parse_error(tmp_path, capsys, content):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    assert cli.main(["validate", str(p)]) == 3
    assert capsys.readouterr().err.startswith("parse error:")


def test_cli_phi_on_a_map_to_a_point_is_a_validation_failure(tmp_path, capsys):
    """The self-map check comes before phi's shapes are checked."""
    doc = _with(lefschetz={"L": {"map": "pt", "sheaf": "k", "phi": {"0": {"0": [[1], [2]]}}}})
    assert cli.main(["validate", write(tmp_path, doc)]) == 1
    assert "self-map" in capsys.readouterr().out


def test_cli_readme_instance_file_runs(tmp_path, capsys):
    """The instance file README.md shows is valid, and the commands that
    read each of its parts exit 0."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    path = write(tmp_path, json.loads(block))
    for argv in (["validate"], ["chi", "explicit"], ["cc", "explicit"],
                 ["dual", "explicit"], ["lefschetz", "L"], ["expand", "T"],
                 ["pushforward", "k", "rot"]):
        assert cli.main([argv[0], path, *argv[1:]]) == 0, (argv, capsys.readouterr())
    assert "Traceback" not in capsys.readouterr().err


def test_cli_chi_and_cc(tmp_path, capsys):
    path = write(tmp_path, TRI)
    assert cli.main(["chi", path, "k"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert cli.main(["chi", path, "edge"]) == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert cli.main(["cc", path, "k"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["+1 0", "+1 1", "+1 2"]
    assert out[3:6] == ["-1 0.1", "-1 0.2", "-1 1.2"]
    assert out[6] == "degree 0"
    assert cli.main(["cc", path, "dk"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["-1 0", "-1 1", "-1 2"]


def test_cli_cc_zero_sheaf(tmp_path, capsys):
    doc = dict(TRI)
    doc = json.loads(json.dumps(TRI))
    doc["sheaves"]["z"] = {"stalks": {}}
    path = write(tmp_path, doc)
    assert cli.main(["cc", path, "z"]) == 0
    assert capsys.readouterr().out.strip() == "degree 0"


def test_cli_lefschetz(tmp_path, capsys):
    path = write(tmp_path, TRI)
    for name, expected in (("L_id", "0"), ("L_rot", "0"), ("L_refl", "2")):
        assert cli.main(["lefschetz", path, name]) == 0
        out = capsys.readouterr().out
        assert ("global %s" % expected) in out
        assert ("local %s" % expected) in out


def test_trace_mismatch_is_a_property_violation(tmp_path, capsys, monkeypatch):
    """A global trace off by one is caught by the comparison of the two
    sides of the Lefschetz formula, in `conormal lefschetz` (exit 2) and
    in the lefschetz suite, not by a validation error."""
    honest = lefschetz._cohomology_trace
    monkeypatch.setattr(lefschetz, "_cohomology_trace",
                        lambda phi, vc: honest(phi, vc) + 1)
    assert cli.main(["lefschetz", write(tmp_path, TRI), "L_refl"]) == 2
    assert capsys.readouterr().out == "global 3\nlocal 2\ntrace mismatch\n"
    report = run_checks(seed=4, cases=25, suites=["lefschetz"])
    details = [json.loads(d) for _, _, d in report.failures]
    assert len(details) == 25
    assert all(d["identity"] == "global_trace == local_trace_sum" for d in details)


# the committed copy of TRI, and the stdout of two commands on it
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
CLI_GOLDENS = [(["lefschetz", "L_refl"], "lefschetz_triangle_L_refl.txt"),
               (["expand", "T"], "expand_triangle_T.txt")]


def test_cli_on_the_triangle_fixture_prints_the_goldens(capsys):
    path = FIXTURES / "triangle.json"
    assert json.loads(path.read_text()) == TRI
    for (command, name), golden in CLI_GOLDENS:
        assert cli.main([command, str(path), name]) == 0
        assert capsys.readouterr().out == (FIXTURES / golden).read_text()


def test_cli_dual_compose_expand(tmp_path, capsys):
    path = write(tmp_path, TRI)
    assert cli.main(["dual", path, "k"]) == 0
    assert "dual ok" in capsys.readouterr().out
    assert cli.main(["compose", path, "k", "k"]) == 0
    assert "compose ok" in capsys.readouterr().out
    assert cli.main(["expand", path, "Tw"]) == 0
    assert "degree 0" in capsys.readouterr().out


# TRI's kernels, an external product of trace kernels and a twist of it
_EXPAND = _with(kernels={"E": {"external": [{"tk": "edge"}, {"tk": "k"}]},
                         "Ew": {"twist": {"of": {"external": [{"tk": "edge"}, {"tk": "k"}]},
                                          "d": -2}}})
# sha256 of the stdout of `conormal expand` on _EXPAND, by kernel
EXPAND_DIGESTS = {
    "T": "6261f07b712376bd6dac417cbc6f27e11e7cf24a05074018a3f41a30a0a1db72",
    "Tw": "6261f07b712376bd6dac417cbc6f27e11e7cf24a05074018a3f41a30a0a1db72",
    "E": "809aa339395aa0c0a7c69e5ea40ddab1f3478ac5bf45482a7de9a1d15aeb55fe",
    "Ew": "809aa339395aa0c0a7c69e5ea40ddab1f3478ac5bf45482a7de9a1d15aeb55fe",
}


def test_cli_expand_stdout_is_pinned(tmp_path, capsys):
    path = write(tmp_path, _EXPAND)
    for name, digest in EXPAND_DIGESTS.items():
        assert cli.main(["expand", path, name]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_twist_suite_and_expand_read_only_the_factors(tmp_path, capsys, monkeypatch):
    """The twist suite and `expand` read stalks from a kernel's factor pair
    and never build its sheaf on product(M, M)."""
    def no_sheaf(*_):
        raise AssertionError("the sheaf on product(M, M) was read")
    monkeypatch.setattr(TraceKernel, "sheaf", no_sheaf)
    assert run_checks(seed=1, cases=25, suites=["twist"]).ok
    path = write(tmp_path, _EXPAND)
    for name in EXPAND_DIGESTS:
        assert cli.main(["expand", path, name]) == 0
    assert capsys.readouterr().err == ""


def test_duality_rank_suite_sees_stripped_restrictions(monkeypatch):
    """A verdier_dual that keeps its stalks and drops every restriction
    keeps every Euler characteristic, so only the rank suite can see it."""
    from conormal import checks
    honest = checks.verdier_dual

    def stripped(f):
        df = honest(f)
        return CellularSheaf(df.base, df.stalks, {})
    assert run_checks(seed=4, cases=25, suites=["duality", "duality-rk"]).ok
    monkeypatch.setattr(checks, "verdier_dual", stripped)
    r = run_checks(seed=4, cases=25, suites=["duality", "duality-rk"])
    assert {name for name, _, _ in r.failures} == {"duality-rk"}
    assert all("dim H^k(M; DF) == dim H^-k(M; F)" in detail
               for _, _, detail in r.failures)


def test_push_rank_suite_sees_stripped_restrictions(monkeypatch):
    """A pushforward that keeps its stalks and drops every restriction
    keeps every cycle, so only the rank suite can see it."""
    from conormal import checks
    honest = checks.pushforward

    def stripped(f, sheaf):
        g = honest(f, sheaf)
        return CellularSheaf(g.base, g.stalks, {})
    assert run_checks(seed=4, cases=25, suites=["pushforward", "push-rk"]).ok
    monkeypatch.setattr(checks, "pushforward", stripped)
    r = run_checks(seed=4, cases=25, suites=["pushforward", "push-rk"])
    assert {name for name, _, _ in r.failures} == {"push-rk"}
    assert all("dim H^k(N; Rf_*F) == dim H^k(M; F)" in detail
               for _, _, detail in r.failures)


def test_cli_pushforward(tmp_path, capsys):
    path = write(tmp_path, TRI)
    assert cli.main(["pushforward", path, "k", "pt"]) == 0
    out = capsys.readouterr().out
    assert "pushforward ok, degree 0" in out


def test_cli_unknown_sheaf(tmp_path):
    path = write(tmp_path, TRI)
    assert cli.main(["chi", path, "nope"]) == 3


def test_cli_check_deterministic(tmp_path, capsys):
    args = ["check", "--seed", "5", "--cases", "4"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    assert "suite index" in first


def test_check_report_matches_golden():
    import pathlib
    from conormal.checks import run_checks
    golden = pathlib.Path(__file__).parent / "fixtures" / "check_seed1_cases5.txt"
    r = run_checks(seed=1, cases=5)
    assert "\n".join(r.lines()) + "\n" == golden.read_text()


def test_cli_check_seed2_matches_golden(capsys):
    # stdout of `conormal check --seed 2 --cases 50`, byte for byte
    import pathlib
    golden = pathlib.Path(__file__).parent / "fixtures" / "check_seed2_cases50.txt"
    assert cli.main(["check", "--seed", "2", "--cases", "50"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_cli_check_seed4_matches_golden(capsys):
    # stdout of `conormal check --seed 4 --cases 100`, byte for byte
    import pathlib
    golden = pathlib.Path(__file__).parent / "fixtures" / "check_seed4_cases100.txt"
    assert cli.main(["check", "--seed", "4", "--cases", "100"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_python_m_conormal_runs_check():
    import os
    import pathlib
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "conormal", "check", "--seed", "1",
                           "--cases", "2"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    golden = (root / "tests" / "fixtures" / "check_seed1_cases5.txt").read_text()
    assert proc.stdout == golden.replace("cases 5\n", "cases 2\n")


def _console_scripts(pyproject):
    """name -> (module, function) of each `name = "module:function"` line
    of [project.scripts], read line by line (tomllib is Python 3.11+)."""
    import re
    scripts, inside = {}, False
    for line in pyproject.splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and line:
            m = re.fullmatch(r'([\w.-]+)\s*=\s*"([\w.]+):(\w+)"', line)
            assert m, "unreadable [project.scripts] line: %r" % line
            scripts[m.group(1)] = (m.group(2), m.group(3))
    return scripts


def test_console_script_runs_check():
    """The conormal entry point of pyproject.toml, called as the script an
    install writes calls it (no arguments, sys.argv read by argparse)."""
    import os
    import pathlib
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    module, function = _console_scripts((root / "pyproject.toml").read_text())["conormal"]
    script = ("import sys; from %s import %s as entry; sys.argv[0] = 'conormal'; "
              "sys.exit(entry())" % (module, function))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", script, "check", "--seed", "1",
                           "--cases", "2"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    golden = (root / "tests" / "fixtures" / "check_seed1_cases5.txt").read_text()
    assert proc.stdout == golden.replace("cases 5\n", "cases 2\n")
    assert _console_scripts('[project]\nname = "x"\n[project.scripts]\n'
                            'a-b = "p.q:main"  # c\n\n[tool.x]\ny = "z:w"\n') == \
        {"a-b": ("p.q", "main")}


def test_check_stdout_does_not_depend_on_the_hash_seed():
    import os
    import pathlib
    import subprocess
    import sys
    root = pathlib.Path(__file__).resolve().parent.parent
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "conormal", "check", "--seed", "4",
                               "--cases", "20"], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_run_checks_runs_a_repeated_suite_once():
    set_negative_control(True)
    try:
        once = run_checks(seed=1, cases=4, suites=["point"])
        twice = run_checks(seed=1, cases=4, suites=["point", "point"])
    finally:
        set_negative_control(False)
    assert once.failures  # the negative control breaks the point suite
    assert twice.lines() == once.lines()
    # by the suite's own identity: tk does not re-check the index
    for _, _, detail in once.failures:
        detail = json.loads(detail)
        assert detail["identity"] == "eu_point(tk(V)) == chi(V)"
        assert "exception" not in detail


def test_cli_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_chi", broken)
    assert cli.main(["chi", write(tmp_path, TRI), "k"]) == cli.INTERNAL_ERROR == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_cli_check_negative_control(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    set_negative_control(True)
    try:
        code = cli.main(["check", "--seed", "1", "--cases", "4",
                         "--counterexample", str(tmp_path / "ce.json")])
    finally:
        set_negative_control(False)
    assert code == 2
    assert (tmp_path / "ce.json").exists()
    payload = json.loads((tmp_path / "ce.json").read_text())
    assert "detail" in payload and "suite" in payload


def test_cli_check_negative_control_unwritable_counterexample(tmp_path,
                                                               capsys):
    # a path that cannot be written still reports the property violation
    set_negative_control(True)
    try:
        code = cli.main(["check", "--seed", "1", "--cases", "4",
                         "--counterexample", str(tmp_path)])
    finally:
        set_negative_control(False)
    assert code == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "counterexample not written to %s" % tmp_path in captured.err


@pytest.mark.parametrize("kwargs", [
    pytest.param({"cases": 0}, id="cases-zero"),
    pytest.param({"max_dim": -1}, id="max-dim-negative"),
    pytest.param({"max_cells": 0}, id="max-cells-zero"),
    pytest.param({"suites": ["bogus"]}, id="unknown-suite"),
])
def test_run_checks_rejects_what_the_cli_rejects(kwargs):
    # the CLI's --cases, --max-dim and --max-cells bounds, for Python callers
    with pytest.raises(ValueError):
        run_checks(seed=1, **{"cases": 2, "suites": ["index"], **kwargs})


def test_check_reports_time_per_suite(capsys):
    r = run_checks(seed=1, cases=2, suites=["point", "index"])
    assert list(r.suite_seconds) == ["point", "index"]
    assert all(s >= 0 for s in r.suite_seconds.values())
    assert cli.main(["check", "--seed", "1", "--cases", "2",
                     "--suite", "point", "--suite", "index"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n".join(r.lines()) + "\n"
    err = captured.err.splitlines()
    assert [line.split()[:2] for line in err] == [["time", "point"], ["time", "index"],
                                                  ["wall", "time"]]
