# Standard libraries
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

# External libraries
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conevol import cli, report, steiner
from conevol.cli import cone_to_spec, main, parse_cone_spec
from conevol.cones import (
    Circular,
    Generators,
    Orthant,
    Polar,
    Product,
    Psd,
    Subspace,
    Trivial,
    ambient_dim,
    second_order_cone,
)
from conevol.exceptions import ConeSpecError, NumericalGuardError, UnsupportedConeError

# ---------------------------------------------------------------------------
# Cone descriptor grammar
# ---------------------------------------------------------------------------

def test_parse_basic_descriptors():
    assert parse_cone_spec("orthant:10") == Orthant(10)
    assert parse_cone_spec("subspace:3:8") == Subspace(3, 8)
    assert parse_cone_spec("psd:4") == Psd(4)
    assert parse_cone_spec("trivial:2") == Trivial(2)
    assert parse_cone_spec("soc:5") == Circular(5, math.pi / 4)
    assert parse_cone_spec("circ:6:0.5") == Circular(6, 0.5)


def test_parse_composite_descriptors():
    cone = parse_cone_spec("prod(orthant:2,polar(circ:3:0.7))")
    assert cone == Product(Orthant(2), Polar(Circular(3, 0.7)))
    assert ambient_dim(cone) == 5
    nested = parse_cone_spec("polar(polar(soc:5))")
    assert nested == Polar(Polar(Circular(5, math.pi / 4)))


def test_parse_is_whitespace_insensitive():
    a = parse_cone_spec("prod( orthant:4 , circ:8:pi/6 )")
    b = parse_cone_spec("prod(orthant:4,circ:8:pi/6)")
    assert a == b


def test_parse_pi_fraction_angles():
    assert parse_cone_spec("circ:6:pi/6").alpha == math.pi / 6
    assert parse_cone_spec("circ:6:0.5pi").alpha == 0.5 * math.pi
    assert parse_cone_spec("circ:6:2pi/8").alpha == 2.0 * math.pi / 8.0
    # the token rule accepts any pi fraction; the half-angle domain check
    # happens at cone construction
    with pytest.raises(ConeSpecError, match=r"\[0, pi/2\]"):
        parse_cone_spec("circ:6:pi")
    with pytest.raises(ConeSpecError):
        parse_cone_spec("circ:6:3pi/4")


def test_parse_errors_carry_byte_offsets():
    with pytest.raises(ConeSpecError, match="at byte 0"):
        parse_cone_spec("")
    with pytest.raises(ConeSpecError, match="at byte"):
        parse_cone_spec("orthant:zebra")
    with pytest.raises(ConeSpecError, match="at byte"):
        parse_cone_spec("prod(orthant:2 orthant:3)")
    with pytest.raises(ConeSpecError, match="trailing input"):
        parse_cone_spec("orthant:3 junk")
    with pytest.raises(ConeSpecError):
        parse_cone_spec("hexagon:5")


def test_parse_rejects_invalid_dimensions_with_position():
    try:
        parse_cone_spec("subspace:9:4")
    except ConeSpecError as e:
        assert "at byte" in str(e)
    else:
        raise AssertionError("expected a parse failure")


# Each valid spec maps to the repr of its cone and each malformed one to its
# full ConeSpecError text.  The table was recorded from the per-keyword
# recursive-descent parser that the table-driven one replaced; only the
# pi/0 rows are new, where that parser divided by zero.
_SPEC_TABLE = [
    ('orthant:10', 'Orthant(d=10)'),
    (' orthant : 10 ', 'Orthant(d=10)'),
    ('\northant:\n3\n', 'Orthant(d=3)'),
    ('\torthant:3', 'Orthant(d=3)'),
    ('orthant:3 ', 'Orthant(d=3)'),
    ('subspace:3:8', 'Subspace(dim=3, ambient=8)'),
    ('subspace : 0 : 5', 'Subspace(dim=0, ambient=5)'),
    ('subspace:5:5', 'Subspace(dim=5, ambient=5)'),
    ('circ:6:0.5', 'Circular(d=6, alpha=0.5)'),
    ('circ:6:pi/6', 'Circular(d=6, alpha=0.5235987755982988)'),
    ('circ:6:0.5pi', 'Circular(d=6, alpha=1.5707963267948966)'),
    ('circ:6:2pi/8', 'Circular(d=6, alpha=0.7853981633974483)'),
    ('circ:6:PI/4', 'Circular(d=6, alpha=0.7853981633974483)'),
    ('circ:6:Pi/3', 'Circular(d=6, alpha=1.0471975511965976)'),
    ('circ:6:pi/2', 'Circular(d=6, alpha=1.5707963267948966)'),
    ('circ:6:0', 'Circular(d=6, alpha=0.0)'),
    ('circ:6:0.pi/3', 'Circular(d=6, alpha=0.0)'),
    ('circ:6:1.5707963267948966', 'Circular(d=6, alpha=1.5707963267948966)'),
    ('circ:6:1e-3', 'Circular(d=6, alpha=0.001)'),
    ('circ:6:pi/2.5', 'Circular(d=6, alpha=1.2566370614359172)'),
    ('circ:2:pi/4', 'Circular(d=2, alpha=0.7853981633974483)'),
    ('circ:6:.5', 'Circular(d=6, alpha=0.5)'),
    ('circ:6:-0.0', 'Circular(d=6, alpha=-0.0)'),
    ('circ:6:1_0e-1', 'Circular(d=6, alpha=1.0)'),
    ('soc:5', 'Circular(d=5, alpha=0.7853981633974483)'),
    ('soc:2', 'Circular(d=2, alpha=0.7853981633974483)'),
    ('psd:1', 'Psd(n=1)'),
    ('psd:3', 'Psd(n=3)'),
    ('psd:4', 'Psd(n=4)'),
    ('trivial:2', 'Trivial(d=2)'),
    ('orthant:1_0', 'Orthant(d=10)'),
    ('orthant:+3', 'Orthant(d=3)'),
    ('orthant:0003', 'Orthant(d=3)'),
    ('orthant:٣', 'Orthant(d=3)'),
    ('polar(orthant:4)', 'Polar(inner=Orthant(d=4))'),
    ('polar( polar( soc:5 ) )',
     'Polar(inner=Polar(inner=Circular(d=5, alpha=0.7853981633974483)))'),
    ('prod(orthant:2,polar(circ:3:0.7))',
     'Product(left=Orthant(d=2), right=Polar(inner=Circular(d=3, alpha=0.7)))'),
    ('prod( orthant:4 , circ:8:pi/6 )',
     'Product(left=Orthant(d=4), right=Circular(d=8, alpha=0.5235987755982988))'),
    ('prod(prod(orthant:1,subspace:2:3),trivial:2)',
     'Product(left=Product(left=Orthant(d=1),'
     ' right=Subspace(dim=2, ambient=3)), right=Trivial(d=2))'),
    ('polar(prod(polar(trivial:2),orthant:3))',
     'Polar(inner=Product(left=Polar(inner=Trivial(d=2)), right=Orthant(d=3)))'),
    ('prod(\n  psd:2,\n  circ:4:pi/5\n)',
     'Product(left=Psd(n=2), right=Circular(d=4, alpha=0.6283185307179586))'),
    ('', 'cone spec error at byte 0: empty cone description'),
    ('   ', 'cone spec error at byte 0: empty cone description'),
    ('\n', 'cone spec error at byte 0: empty cone description'),
    (None, 'cone spec error at byte 0: empty cone description'),
    (3, 'cone spec error at byte 0: empty cone description'),
    ('Orthant:3', 'cone spec error at byte 0: expected a cone keyword'),
    ('CIRC:3:0.5', 'cone spec error at byte 0: expected a cone keyword'),
    ('orthant3:4', "cone spec error at byte 7: expected ':'"),
    ('foo(3)', "cone spec error at byte 3: expected ':'"),
    ('foo:3', "cone spec error at byte 0: unknown cone keyword 'foo'"),
    ('  foo:3', "cone spec error at byte 2: unknown cone keyword 'foo'"),
    ('polar-x:3', "cone spec error at byte 0: unknown cone keyword 'polar-x'"),
    ('orthant', "cone spec error at byte 7: expected ':'"),
    ('orthant:', 'cone spec error at byte 8: expected a value'),
    ('orthant::3', 'cone spec error at byte 8: expected a value'),
    ('orthant:3:', "cone spec error at byte 9: trailing input ':'"),
    ('orthant:3:4', "cone spec error at byte 9: trailing input ':4'"),
    ('orthant:zebra', "cone spec error at byte 13: expected an integer, got 'zebra'"),
    ('orthant:3.0', "cone spec error at byte 11: expected an integer, got '3.0'"),
    ('orthant:-3',
     'cone spec error at byte 0: dimension must be an integer in [1, 10000], got -3'),
    ('orthant:0', 'cone spec error at byte 0: dimension must be an integer in [1, 10000], got 0'),
    ('orthant:10001',
     'cone spec error at byte 0: dimension must be an integer in [1, 10000], got 10001'),
    ('orthant:99999999999999999999999',
     'cone spec error at byte 0: dimension must be an integer in'
     ' [1, 10000], got 99999999999999999999999'),
    ('orthant:3\x00', "cone spec error at byte 10: expected an integer, got '3\\x00'"),
    ('subspace:3', "cone spec error at byte 10: expected ':'"),
    ('subspace:9:8', 'cone spec error at byte 0: subspace dimension must lie in [0, 8], got 9'),
    ('subspace:-1:8', 'cone spec error at byte 0: subspace dimension must lie in [0, 8], got -1'),
    ('subspace:3:8:1', "cone spec error at byte 12: trailing input ':1'"),
    ('circ:1:0.5', 'cone spec error at byte 0: dimension must be an integer in [2, 10000], got 1'),
    ('circ:6', "cone spec error at byte 6: expected ':'"),
    ('circ:6:', 'cone spec error at byte 7: expected a value'),
    ('circ:6:pi', 'cone spec error at byte 0: alpha must lie in [0, pi/2], got 3.141592653589793'),
    ('circ:6:3pi/4',
     'cone spec error at byte 0: alpha must lie in [0, pi/2], got 2.356194490192345'),
    ('circ:6:nan', 'cone spec error at byte 0: alpha must lie in [0, pi/2], got nan'),
    ('circ:6:NaN', 'cone spec error at byte 0: alpha must lie in [0, pi/2], got nan'),
    ('circ:6:inf', 'cone spec error at byte 0: alpha must lie in [0, pi/2], got inf'),
    ('circ:6:-inf', 'cone spec error at byte 0: alpha must lie in [0, pi/2], got -inf'),
    ('circ:6:-0.1', 'cone spec error at byte 0: alpha must lie in [0, pi/2], got -0.1'),
    ('circ:6:1_0', 'cone spec error at byte 0: alpha must lie in [0, pi/2], got 10.0'),
    ('circ:6:pix',
     "cone spec error at byte 10: expected an angle in radians or a pi fraction, got 'pix'"),
    ('circ:6:pi/',
     "cone spec error at byte 10: expected an angle in radians or a pi fraction, got 'pi/'"),
    ('circ:6:/2',
     "cone spec error at byte 9: expected an angle in radians or a pi fraction, got '/2'"),
    ('circ:6:2*pi',
     "cone spec error at byte 11: expected an angle in radians or a pi fraction, got '2*pi'"),
    ('soc:1', 'cone spec error at byte 0: dimension must be an integer in [2, 10000], got 1'),
    ('soc:5:1', "cone spec error at byte 5: trailing input ':1'"),
    ('psd:0', 'cone spec error at byte 0: matrix order must be a positive integer, got 0'),
    ('psd:142',
     'cone spec error at byte 0: dimension must be an integer in [1, 10000], got 10153'),
    ('psd:x', "cone spec error at byte 5: expected an integer, got 'x'"),
    ('trivial:0', 'cone spec error at byte 0: dimension must be an integer in [1, 10000], got 0'),
    ('polar', "cone spec error at byte 5: expected '('"),
    ('polar(', 'cone spec error at byte 6: expected a cone keyword'),
    ('polar()', 'cone spec error at byte 6: expected a cone keyword'),
    ('polar(orthant:3', "cone spec error at byte 15: expected ')'"),
    ('polar(orthant:3))', "cone spec error at byte 16: trailing input ')'"),
    ('polar((orthant:3))', 'cone spec error at byte 6: expected a cone keyword'),
    ('polar orthant:3', "cone spec error at byte 6: expected '('"),
    ('polar:3', "cone spec error at byte 5: expected '('"),
    ('prod(orthant:3)', "cone spec error at byte 14: expected ','"),
    ('prod(orthant:3,)', 'cone spec error at byte 15: expected a cone keyword'),
    ('prod(orthant:3,orthant:2', "cone spec error at byte 24: expected ')'"),
    ('prod(orthant:3,orthant:2,orthant:1)', "cone spec error at byte 24: expected ')'"),
    ('prod(,orthant:3)', 'cone spec error at byte 5: expected a cone keyword'),
    ('prod orthant:3', "cone spec error at byte 5: expected '('"),
    ('prod(orthant:0,orthant:3)',
     'cone spec error at byte 5: dimension must be an integer in [1, 10000], got 0'),
    ('polar(prod(orthant:3,foo:1))', "cone spec error at byte 21: unknown cone keyword 'foo'"),
    ('polar(prod(orthant:3,\n circ:9:7))',
     'cone spec error at byte 23: alpha must lie in [0, pi/2], got 7.0'),
    ('orthant:3 orthant:4', "cone spec error at byte 10: trailing input 'orthant:4'"),
    ('orthant:3)', "cone spec error at byte 9: trailing input ')'"),
    ('orthant:3,', "cone spec error at byte 9: trailing input ','"),
    ('(orthant:3)', 'cone spec error at byte 0: expected a cone keyword'),
    (':3', 'cone spec error at byte 0: expected a cone keyword'),
    ('123', 'cone spec error at byte 0: expected a cone keyword'),
    ('orthant :3 x', "cone spec error at byte 11: trailing input 'x'"),
    ('gens:', 'cone spec error at byte 5: expected a value'),
    ('gens', "cone spec error at byte 4: expected ':'"),
    ("circ:6:pi/0",
     "cone spec error at byte 11: expected an angle in radians or a pi fraction, got 'pi/0'"),
    ("circ:6:pi/00",
     "cone spec error at byte 12: expected an angle in radians or a pi fraction, got 'pi/00'"),
    ("circ:6:2pi/0.0",
     "cone spec error at byte 14: expected an angle in radians or a pi fraction, got '2pi/0.0'"),
    ("prod(orthant:3, circ:2:pi/0)",
     "cone spec error at byte 27: expected an angle in radians or a pi fraction, got 'pi/0'"),
]


def test_parse_matches_recorded_table():
    assert len(_SPEC_TABLE) >= 80
    for spec, expected in _SPEC_TABLE:
        try:
            got = repr(parse_cone_spec(spec))
        except ConeSpecError as e:
            got = str(e)
        assert got == expected, spec


def test_parse_generator_specs(tmp_path):
    # gens: takes the token up to the next delimiter as a path; a file that
    # cannot be read or parsed is reported at the byte of its keyword
    path = tmp_path / "g.csv"
    path.write_text("1,0\n0,2\n")
    cone = parse_cone_spec(f"gens:{path}")
    assert cone == Generators(np.array([[1.0, 0.0], [0.0, 2.0]])) and cone.source == str(path)
    assert parse_cone_spec(f" prod( gens : {path} , orthant:1)") == Product(cone, Orthant(1))
    missing = tmp_path / "missing.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    for spec, message in [
            (f"gens:{missing}",
             f"at byte 0: {missing}: cannot read generator file: No such file or directory"),
            (f"polar(gens:{missing})",
             f"at byte 6: {missing}: cannot read generator file: No such file or directory"),
            (f"gens:{tmp_path}", f"at byte 0: {tmp_path}: cannot read generator file: Is a directory"),
            ("prod(orthant:1,gens:a\x00b)",
             "at byte 15: a\x00b: cannot read generator file: embedded null byte"),
            (f"gens:{bad}", f"at byte 0: {bad}: row 2 has 1 columns, expected 2"),
            (f"gens:{path}:3", f"at byte {len(str(path)) + 5}: trailing input ':3'")]:
        with pytest.raises(ConeSpecError) as info:
            parse_cone_spec(spec)
        assert str(info.value) == f"cone spec error {message}"


def test_print_round_trips_all_constructions(tmp_path):
    cones = [
        Orthant(7),
        Subspace(0, 3),
        Circular(12, 0.3),
        second_order_cone(9),
        Psd(3),
        Trivial(4),
        Product(Orthant(2), Polar(Circular(4, 1.1))),
        Polar(Product(Psd(2), Orthant(1))),
    ]
    for cone in cones:
        assert parse_cone_spec(cone_to_spec(cone)) == cone


def test_print_generators_requires_source(tmp_path):
    bare = Generators(np.eye(3))
    with pytest.raises(UnsupportedConeError):
        cone_to_spec(bare)
    path = tmp_path / "g.csv"
    path.write_text("1.0,0.0\n0.0,1.0\n")
    loaded = parse_cone_spec(f"gens:{path}")
    assert isinstance(loaded, Generators)
    assert parse_cone_spec(cone_to_spec(loaded)) == loaded


_descriptor_leaves = st.one_of(
    st.integers(1, 12).map(Orthant),
    st.integers(1, 9).map(lambda d: Subspace(d // 2, d)),
    st.tuples(st.integers(2, 10),
              st.floats(0.0, math.pi / 2)).map(lambda t: Circular(*t)),
    st.integers(1, 4).map(Psd),
    st.integers(1, 6).map(Trivial),
)

_descriptor_cones = st.recursive(
    _descriptor_leaves,
    lambda inner: st.one_of(
        inner.map(Polar),
        st.tuples(inner, inner).map(lambda t: Product(*t)),
    ),
    max_leaves=6,
)


@settings(max_examples=80, deadline=None)
@given(cone=_descriptor_cones)
def test_print_parse_round_trip_property(cone):
    assert parse_cone_spec(cone_to_spec(cone)) == cone


# ---------------------------------------------------------------------------
# Subcommands, in process
# ---------------------------------------------------------------------------

def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profile_exact_json(capsys):
    code, out, _ = _run(capsys, ["profile", "--cone", "orthant:3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cone"] == "orthant:3"
    assert payload["d"] == 3
    assert payload["v"] == [0.125, 0.375, 0.375, 0.125]
    assert payload["stderr"] is None
    assert payload["provenance"] == "exact"


def test_profile_csv_layout(capsys):
    code, out, _ = _run(capsys, ["profile", "--cone", "orthant:2",
                                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "v", "stderr"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert float(rows[1][1]) == 0.25


def test_profile_estimates_are_deterministic(capsys):
    argv = ["profile", "--cone", "orthant:6", "--method", "face",
            "--samples", "20000", "--seed", "3", "--format", "csv"]
    code_a, out_a, _ = _run(capsys, argv)
    code_b, out_b, _ = _run(capsys, argv)
    code_c, out_c, _ = _run(capsys, argv + ["--workers", "3"])
    assert code_a == code_b == code_c == 0
    assert out_a == out_b == out_c


def test_profile_face_ignores_generator_lengths(tmp_path, capsys):
    # a rotated orthant whose generators span sixteen orders of magnitude
    # in length has the orthant's profile, Binomial(4, 1/2)
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))[0]
    path = tmp_path / "gens.csv"
    np.savetxt(path, q * np.array([1e-8, 1.0, 1.0, 1e8])[:, None], delimiter=",")
    n = 20000
    code, out, _ = _run(capsys, ["profile", "--cone", f"gens:{path}", "--method", "face",
                                 "--samples", str(n), "--seed", "1"])
    assert code == 0
    truth = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    z = np.abs(np.array(json.loads(out)["v"]) - truth) / np.sqrt(truth * (1.0 - truth) / n)
    assert float(z.max()) < 4.0


def test_profile_exact_fails_cleanly_for_smooth_cone(capsys):
    code, _, err = _run(capsys, ["profile", "--cone", "circ:5:0.7"])
    assert code == 2
    assert "error:" in err


def test_profile_biorth_past_dimension_cap_hits_guard_exit(capsys):
    code, _, err = _run(capsys, ["profile", "--cone", "orthant:24",
                                 "--method", "biorth", "--samples", "1000"])
    assert code == 3
    assert "numerical guard" in err


def test_profile_biorth_one_sample_exits_2(capsys):
    code, out, err = _run(capsys, ["profile", "--cone", "orthant:3",
                                   "--method", "biorth", "--samples", "1"])
    assert code == 2
    assert out == ""
    assert "error:" in err and "at least 2" in err


@pytest.mark.parametrize("argv", [["sdim"], ["var"], ["profile", "--method", "face"],
                                  ["wills", "--lambda", "1.5"], ["steiner", "--check", "gaussian"]],
                         ids=["sdim", "var", "profile-face", "wills", "steiner-gaussian"])
def test_one_sample_estimates_exit_2(capsys, argv):
    # one sample has no spread: its standard error would read 0, as if the
    # estimate were exact
    code, out, err = _run(capsys, [*argv, "--cone", "orthant:3", "--samples", "1"])
    assert code == 2
    assert out == ""
    assert "error:" in err and "at least 2" in err


@pytest.mark.parametrize("cap", ["0", "-5", "1"])
def test_profile_reservoir_cap_must_be_positive(capsys, cap):
    code, out, err = _run(capsys, ["profile", "--cone", "orthant:3", "--method", "biorth",
                                   "--samples", "1000", "--reservoir-cap", cap])
    assert code == 2
    assert out == ""
    assert "reservoir_cap must be at least 2" in err


def test_profile_mixture_reservoir_cap_one_exits_2(capsys):
    # a one-sample reservoir used to give the mixture fit v = (0, 1, 0, ...)
    code, out, err = _run(capsys, ["profile", "--cone", "circ:6:0.5", "--method", "mixture",
                                   "--reservoir-cap", "1", "--samples", "1000"])
    assert code == 2
    assert out == ""
    assert "reservoir_cap must be at least 2" in err


def test_profile_out_writes_file(tmp_path, capsys):
    target = tmp_path / "prof.json"
    code, out, _ = _run(capsys, ["profile", "--cone", "orthant:3",
                                 "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["d"] == 3


@pytest.mark.parametrize("argv", [
    ["sdim", "--cone", "orthant:4", "--samples", "1000"],
    ["tail", "--cone", "orthant:4", "--samples", "0", "--delta", "2", "--lambda-grid", "0:1:1"],
], ids=["json", "csv"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "artifact"
    code, out, err = _run(capsys, [*argv, "--out", str(target)])
    assert code == 2
    assert out == ""
    assert f"{target}: cannot write artifact" in err


def test_report_to_unwritable_out_exits_2(tmp_path, capsys, monkeypatch):
    # an unwritable --out fails before the battery runs, not after it
    def battery(**_):
        raise AssertionError("the battery ran before --out was checked")

    monkeypatch.setattr(report, "run_battery", battery)
    code, out, err = _run(capsys, ["report", "--scale", "quick", "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert f"{tmp_path}: cannot write artifact" in err


def test_steiner_help_states_every_default_grid(capsys):
    with pytest.raises(SystemExit):
        main(["steiner", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for check, grid in cli._DEFAULT_GRIDS.items():
        assert f"{check} {','.join(f'{lam:g}' for lam in grid)}" in text, check
    assert "spherical 0.25,0.5,0.75,1" in text


def test_product_check_help_documents_its_run_flags(capsys):
    # product-check takes the run flags of every other sampling subcommand,
    # with the same help text
    helps = []
    for command in ("product-check", "sdim"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        helps.append(" ".join(capsys.readouterr().out.split()))
    for text in ("Monte Carlo sample count (default 100000)", "RNG seed (default 0)",
                 "worker threads (default: CONEVOL_THREADS or 1); never changes output values",
                 "write the artifact to PATH instead of stdout"):
        assert all(text in help_text for help_text in helps), text


def test_json_artifacts_refuse_numbers_that_are_not_finite():
    assert cli._json_text({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericalGuardError, match="not finite"):
            cli._json_text({"x": x})


def test_bad_cone_spec_exits_2(capsys):
    code, _, err = _run(capsys, ["profile", "--cone", "orthant:-3"])
    assert code == 2
    assert "at byte" in err


@pytest.mark.parametrize("angle", ["pi/0", "pi/00"])
def test_pi_over_zero_angle_exits_2(capsys, angle):
    code, out, err = _run(capsys, ["profile", "--cone", f"circ:3:{angle}"])
    assert code == 2
    assert out == ""
    assert f"at byte {7 + len(angle)}: expected an angle" in err and repr(angle) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_generator_file_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "missing.csv" if kind == "missing" else tmp_path
    code, out, err = _run(capsys, ["sdim", "--cone", f"gens:{path}", "--samples", "200"])
    assert code == 2
    assert out == ""
    assert str(path) in err and "cannot read generator file" in err
    assert "Traceback" not in err


def test_module_entry_point_runs_with_warnings_as_errors():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "conevol.cli", "sdim", "--cone",
         "orthant:4", "--samples", "1000"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert json.loads(proc.stdout)["quantity"] == "statistical_dimension"


def test_sdim_json_schema(capsys):
    code, out, _ = _run(capsys, ["sdim", "--cone", "subspace:3:8",
                                 "--samples", "5000", "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["quantity"] == "statistical_dimension"
    assert payload["samples"] == 5000
    assert payload["seed"] == 1
    assert abs(payload["estimate"] - 3.0) < 4.0 * payload["se"]


def test_var_estimate_runs(capsys):
    code, out, _ = _run(capsys, ["var", "--cone", "orthant:8",
                                 "--samples", "20000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["quantity"] == "intrinsic_variance"
    assert abs(payload["estimate"] - 2.0) < 6.0 * payload["se"]


def test_tail_table_without_sampling(capsys):
    code, out, _ = _run(capsys, ["tail", "--cone", "orthant:10",
                                 "--samples", "0", "--delta", "5",
                                 "--lambda-grid", "0:4:1"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "lambda"
    assert len(rows) == 6
    first = dict(zip(rows[0], rows[1]))
    assert float(first["combined"]) == 2.0
    assert float(first["upper_bennett"]) == 1.0
    assert float(first["delta_polar"]) == 5.0
    last = dict(zip(rows[0], rows[5]))
    assert float(last["lambda"]) == 4.0
    assert float(last["combined"]) == pytest.approx(1.0635030602611413)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5", "4.5"])
@pytest.mark.parametrize("flag", ["--delta", "--delta-polar"])
def test_tail_rejects_impossible_statistical_dimensions(capsys, flag, value):
    code, out, err = _run(capsys, ["tail", "--cone", "orthant:4", "--samples", "0",
                                   f"{flag}={value}", "--lambda-grid", "0:1:0.5"])
    assert code == 2
    assert out == ""
    assert f"{flag} must lie in [0, 4], got {float(value)}" in err


def test_tail_without_delta_needs_samples(capsys):
    # a run needs two samples, so one sample gets the same hint as none
    for samples in ("0", "1"):
        with pytest.raises(SystemExit) as exc:
            main(["tail", "--cone", "orthant:10", "--samples", samples,
                  "--lambda-grid", "0:2:1"])
        assert exc.value.code == 2
        assert "needs --delta/--delta-polar" in capsys.readouterr().err, samples


def test_tail_estimates_deltas_when_sampling(capsys):
    code, out, _ = _run(capsys, ["tail", "--cone", "orthant:8",
                                 "--samples", "20000",
                                 "--lambda-grid", "1:2:1"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    row = dict(zip(rows[0], rows[1]))
    assert float(row["delta"]) == pytest.approx(4.0, abs=0.2)


def test_tail_polar_delta_is_the_complement_when_sampling(capsys):
    # both deltas come from one estimate, so they add up to d = 8
    code, out, _ = _run(capsys, ["tail", "--cone", "prod(orthant:3,subspace:2:5)",
                                 "--samples", "20000", "--lambda-grid", "1:2:1"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    for row in rows[1:]:
        row = dict(zip(rows[0], row))
        delta, delta_polar = float(row["delta"]), float(row["delta_polar"])
        assert delta_polar == 8.0 - delta
        assert delta + delta_polar == pytest.approx(8.0, abs=1e-12)
        assert delta == pytest.approx(3.5, abs=0.1)


def test_wills_values(capsys):
    code, out, _ = _run(capsys, ["wills", "--cone", "orthant:8",
                                 "--lambda", "0.5", "--samples", "50000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial"] == pytest.approx(0.75 ** 8, rel=1e-12)
    assert abs(payload["mc"] - payload["polynomial"]) < 5.0 * payload["mc_se"]


@pytest.mark.parametrize("cone, lam, expected", [
    ("orthant:8", "1e300", 3),      # lam ** d overflows
    ("orthant:200", "40", 3),       # so does the polynomial's top power
    ("orthant:8", "1e-300", 3),     # lam ** d underflows the Monte Carlo scale
    ("orthant:8", "inf", 2),
    ("orthant:8", "nan", 2),
])
def test_wills_at_extreme_lambda_honours_exit_codes(capsys, cone, lam, expected):
    code, out, err = _run(capsys, ["wills", "--cone", cone, "--lambda", lam,
                                   "--samples", "1000"])
    assert code == expected
    assert out == ""
    assert ("numerical guard:" if expected == 3 else "error:") in err


def test_steiner_check_passes_for_orthant(capsys):
    code, out, _ = _run(capsys, ["steiner", "--check", "gaussian",
                                 "--cone", "orthant:6", "--samples", "20000"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda", "mixture", "mc", "diff", "se"]
    assert len(rows) == 6


@pytest.mark.parametrize("grid", ["0:inf:1", "0:nan:1", "-inf:1:1", "0:1:inf"])
@pytest.mark.parametrize("command", [
    ["steiner", "--cone", "orthant:4", "--check", "gaussian", "--samples", "100"],
    ["tail", "--cone", "orthant:4", "--samples", "0", "--delta", "2"],
])
def test_non_finite_lambda_grid_exits_2(capsys, command, grid):
    code, out, err = _run(capsys, [*command, f"--lambda-grid={grid}"])
    assert code == 2
    assert out == ""
    assert f"{grid!r}" in err


@pytest.mark.parametrize("command", [
    ["steiner", "--cone", "orthant:4", "--check", "gaussian", "--samples", "100"],
    ["tail", "--cone", "orthant:4", "--samples", "0", "--delta", "2"],
])
def test_oversized_lambda_grid_exits_2_before_allocating(command):
    # 10**12 points: building the grid would take terabytes, so the child
    # runs under a 1 GB address-space limit and must refuse it within the
    # timeout instead
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "conevol.cli", *command, "--lambda-grid=0:1e12:1"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "'0:1e12:1'" in proc.stderr


def test_lambda_grid_point_cap_is_inclusive():
    n = cli._MAX_GRID_POINTS
    assert len(cli._parse_grid(f"0:{n - 1}:1")) == n
    for grid in (f"0:{n}:1", "-1e308:1e308:1", "0:1:1e-320"):
        with pytest.raises(ConeSpecError, match="more than"):
            cli._parse_grid(grid)


def test_steiner_master_check(capsys):
    code, out, _ = _run(capsys, ["steiner", "--check", "master",
                                 "--cone", "orthant:4", "--samples", "20000"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "functional"
    names = [r[0] for r in rows[1:]]
    assert names == sorted(names)


@pytest.mark.parametrize("argv", [
    ["steiner", "--check", "gaussian"],
    ["steiner", "--check", "master"],
    ["wills", "--lambda", "0.5"],
], ids=lambda argv: "-".join(argv[:3:2]))
def test_steiner_and_wills_honour_workers(capsys, monkeypatch, argv):
    seen = []
    real = steiner.map_chunks

    def spy(cone, config, fn, workers=None):
        seen.append(workers)
        return real(cone, config, fn, workers)
    monkeypatch.setattr(steiner, "map_chunks", spy)
    runs = [_run(capsys, argv + ["--cone", "orthant:4", "--samples", "40000",
                                 "--workers", w]) for w in ("1", "3")]
    assert runs[0][0] == 0
    assert runs[0][:2] == runs[1][:2]
    assert set(seen) == {1, 3}


def test_product_check_agrees(capsys):
    code, out, _ = _run(capsys, ["product-check", "--cone", "orthant:3",
                                 "--cone", "orthant:4", "--samples", "20000"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "convolution", "direct", "diff", "se"]
    assert len(rows) == 9


def test_checks_exit_4_on_a_wrong_profile(capsys, monkeypatch):
    # the reversed profile of a cone that is not palindromic breaks the
    # identities by far more than the Monte Carlo error allows
    cone = "prod(orthant:3,subspace:2:5)"
    runs = (["steiner", "--check", "gaussian", "--cone", cone, "--samples", "4000"],
            ["product-check", "--cone", cone, "--cone", "orthant:1", "--samples", "4000"])
    assert [_run(capsys, argv)[0] for argv in runs] == [0, 0]
    real = cli.exact_profile

    def reversed_profile(c):
        prof = real(c)
        return dataclasses.replace(prof, v=prof.v[::-1])
    monkeypatch.setattr(cli, "exact_profile", reversed_profile)
    assert [_run(capsys, argv)[0] for argv in runs] == [4, 4]


def test_product_check_needs_exactly_two_cones():
    with pytest.raises(SystemExit) as exc:
        main(["product-check", "--cone", "orthant:3", "--samples", "100"])
    assert exc.value.code == 2


def test_report_scale_choices_enforced():
    with pytest.raises(SystemExit) as exc:
        main(["report", "--scale", "medium"])
    assert exc.value.code == 2


def test_csv_floats_use_full_precision(capsys):
    _, out, _ = _run(capsys, ["tail", "--cone", "orthant:10", "--samples", "0",
                              "--delta", "5", "--lambda-grid", "3:3:1"])
    rows = list(csv.reader(io.StringIO(out)))
    val = dict(zip(rows[0], rows[1]))["combined"]
    # 17 significant digits survive a float round trip exactly
    assert val == "%.17g" % float(val)


# ---------------------------------------------------------------------------
# Check artifacts, pinned
# ---------------------------------------------------------------------------

# a pointed generator cone in R^4 with three generators
_PINNED_GENERATORS = "1,0,0,0\n1,1,0,0\n0,1,1,1\n"

# stdout and exit code of every run below, hashed in order.  The runs cover
# each estimator route (exact, face, mixture fit) behind each check command
# and keep the product-check and psd:4 runs that exit 4 on an estimator's
# error rather than the identity's; a change to any of these artifacts
# must update the digest on purpose
_PINNED_RUNS = (
    ["steiner", "--check", "gaussian", "--cone", "orthant:5", "--samples", "4000"],
    ["steiner", "--check", "spherical", "--cone", "circ:6:pi/5", "--samples", "4000"],
    ["steiner", "--check", "master", "--cone", "prod(orthant:3,subspace:2:5)",
     "--samples", "4000"],
    ["steiner", "--check", "gaussian", "--cone", "gens:{gens}", "--samples", "4000"],
    ["steiner", "--check", "gaussian", "--cone", "psd:4", "--samples", "20000"],
    ["steiner", "--check", "spherical", "--cone", "polar(circ:5:pi/5)",
     "--samples", "4000", "--lambda-grid", "0.1:0.9:0.2"],
    ["product-check", "--cone", "orthant:3", "--cone", "orthant:4", "--samples", "4000"],
    ["product-check", "--cone", "circ:5:pi/6", "--cone", "orthant:2", "--samples", "4000"],
    ["product-check", "--cone", "psd:3", "--cone", "orthant:4", "--samples", "4000"],
    ["wills", "--cone", "orthant:6", "--lambda", "0.5", "--samples", "4000"],
    ["wills", "--cone", "circ:8:pi/6", "--lambda", "2", "--samples", "4000"],
    ["tail", "--cone", "orthant:6", "--samples", "0", "--delta", "2.5",
     "--lambda-grid", "0:3:0.5"],
    ["tail", "--cone", "prod(orthant:3,subspace:2:5)", "--samples", "4000",
     "--lambda-grid", "0.5:2:0.5"],
    ["profile", "--cone", "polar(circ:5:pi/5)", "--method", "mixture",
     "--samples", "4000", "--format", "csv"],
)

_PINNED_SHA256 = "88909d1f31b61962f9efe9bcb1f4097f7d18a0d45b68d3f42edcf27e9224b9d7"


def test_check_artifacts_are_pinned(tmp_path, capsys):
    gens = tmp_path / "gens.csv"
    gens.write_text(_PINNED_GENERATORS)
    digest = hashlib.sha256()
    for argv in _PINNED_RUNS:
        code, out, _ = _run(capsys, [a.format(gens=gens) for a in argv])
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == _PINNED_SHA256
