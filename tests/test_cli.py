"""End-to-end command-line behaviour via the dispatch entry point."""

import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from artifact.cli import dispatch, parse_quiddity_text

from conftest import ANNULUS_334_TEXT


def run(argv):
    out = io.StringIO()
    code = dispatch(argv, out)
    return code, out.getvalue()


@pytest.fixture
def qfile(tmp_path):
    def make(text):
        p = tmp_path / "input.txt"
        p.write_text(text)
        return str(p)
    return make


def test_gen_prints_frieze_rows(qfile):
    code, out = run(["gen", qfile("[3] [3,3,3,3] [3,3,3,3]"), "--depth", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["0"] * 6
    assert lines[1].split() == ["1"] * 6
    assert "1" in lines[2] and "4" in lines[2]
    assert "15" in lines[3]


def test_classify_realizable_annulus(qfile):
    code, out = run(["classify", qfile("[3,3,4] [3] [3,3,4,4]")])
    assert code == 0
    assert "verdict: annulus" in out
    assert "witness:" in out and "bridge" in out
    assert "cut trace: ear of size 3 at position 2" in out


def test_classify_unrealizable(qfile):
    code, out = run(["classify", qfile("[3,3] [4,4,4]")])
    assert code == 1
    assert "verdict: unrealizable" in out and "reason:" in out


def test_classify_all_witnesses(qfile):
    code, out = run(["classify", qfile("[3,4] [3,4] [3,4] [3,4]"),
                     "--all-witnesses"])
    assert code == 0
    assert "witness 1:" in out and "witness 2:" in out


def test_realize_round_trip(qfile, tmp_path):
    from artifact import parse_dissection_text, quiddity_of
    code, out = run(["realize", qfile("[3,3,4] [3] [3,3,4,4]")])
    assert code == 0
    D = parse_dissection_text(out)
    assert list(quiddity_of(D).A) == [(3, 3, 4), (3,), (3, 3, 4, 4)]


def test_realize_negative(qfile):
    code, out = run(["realize", qfile("[3,3] [4,4,4]")])
    assert code == 1 and "unrealizable" in out


def test_growth(qfile):
    code, out = run(["growth", qfile("[3] [3,3,3,3] [3,3,3,3]"), "--k", "2"])
    assert code == 0
    assert "s_1 = 7" in out and "s_2 = 47" in out
    # finite friezes have no growth coefficient
    code, out = run(["growth", qfile("[3] [3] [3]")])
    assert code == 1


def test_matchings_list(qfile):
    code, out = run(["matchings", qfile(ANNULUS_334_TEXT),
                     "--from", "0", "--to", "4", "--mode", "ann", "--list"])
    assert code == 0
    assert "matchings: 12" in out
    assert "sum: 3 - 9*m + 3*m^3" in out  # equals 3 + 3*sqrt(2)


def test_matchings_sum_only(qfile):
    code, out = run(["matchings", qfile(ANNULUS_334_TEXT),
                     "--from", "0", "--to", "3"])
    assert code == 0 and out.startswith("sum: ")


def test_tpaths_with_phi(qfile):
    text = "polygon 6\ndiag 1 3\ndiag 3 5\n"
    code, out = run(["tpaths", qfile(text), "--from", "2", "--to", "6",
                     "--kind", "complete", "--check-phi"])
    assert code == 0
    assert "paths:" in out and "sum:" in out
    assert "phi bijection verified" in out


def test_power(qfile):
    code, out = run(["power", qfile(ANNULUS_334_TEXT), "--k", "2"])
    assert code == 0
    assert out.startswith("annulus 6 6")


def test_verify_suites_small():
    for suite in ("unimodular", "weights-equal", "growth-matching",
                  "inner-outer", "phi"):
        code, out = run(["verify", suite, "--count", "5", "--seed", "3"])
        assert code == 0, (suite, out)
        assert "5 pass, 0 fail" in out


def test_verify_positivity_sweep():
    code, out = run(["verify", "positivity-sweep", "--count", "20",
                     "--seed", "3"])
    assert code == 0
    assert "provably_positive:" in out


def test_render_svg(qfile, tmp_path):
    dest = tmp_path / "pic.svg"
    code, out = run(["render", qfile(ANNULUS_334_TEXT), "--out", str(dest)])
    assert code == 0
    svg = dest.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") >= 8  # two boundaries plus vertex dots
    code, out = run(["render", qfile("polygon 6\ndiag 1 3\n")])
    assert code == 0 and "<polygon" in out


def test_input_errors(qfile):
    code, _ = run(["gen", qfile("[3,3] [2,3]")])
    assert code == 2
    for text in ("[1009]", "[10007]", "[3,7] [11,13]"):
        assert run(["gen", qfile(text)]) == (2, "")
    code, _ = run(["classify", "/nonexistent/file.txt"])
    assert code == 2
    code, _ = run(["matchings", qfile(ANNULUS_334_TEXT),
                   "--from", "0", "--to", "4", "--mode", "bogus"])
    assert code == 2
    code, _ = run(["frobnicate"])
    assert code == 2


def test_parse_quiddity_text_errors():
    assert list(parse_quiddity_text("[3,4] [5]").A) == [(3, 4), (5,)]
    with pytest.raises(ValueError):
        parse_quiddity_text("")
    with pytest.raises(ValueError):
        parse_quiddity_text("[3,4")
    with pytest.raises(ValueError):
        parse_quiddity_text("[3,x]")
    with pytest.raises(ValueError):
        parse_quiddity_text("[2,3]")
    with pytest.raises(ValueError):
        parse_quiddity_text("[]")
    with pytest.raises(ValueError):
        parse_quiddity_text("3 4")


# sizes of any magnitude: parsing builds the ring of degree phi(2L)/2, L the
# lcm of the sizes, and refuses a degree above the cap before building it
TOKENS = st.one_of(
    st.sampled_from(["[", "]", ",", " ", "\t", "\n", "#", "-", "+", "03",
                     "²", "٣"]),
    st.one_of(st.integers(0, 300), st.integers(0, 10 ** 30)).map(str),
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=3))


@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(TOKENS, max_size=24).map("".join))
def test_parse_quiddity_text_raises_only_value_error(text):
    try:
        Q = parse_quiddity_text(text)
    except ValueError:
        return
    assert Q.n >= 1 and all(len(a) >= 1 and min(a) >= 3 for a in Q.A)


CYCLES = st.lists(st.lists(st.integers(3, 6), min_size=1, max_size=3),
                  min_size=1, max_size=8)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(CYCLES)
def test_a_parsed_cycle_is_classified_and_realized(A):
    text = " ".join("[%s]" % ",".join(map(str, a)) for a in A)
    parse_quiddity_text(text)
    for verb in ("classify", "realize"):
        with mock.patch("sys.stdin", io.StringIO(text)):
            code, _out = run([verb, "-"])
        assert code in (0, 1), (verb, text)


def test_a_witness_of_another_cycle_is_an_internal_error(qfile, monkeypatch):
    from artifact import realize
    other = realize._classify_core(parse_quiddity_text("[3,3] [3,3] [3,3]"))
    monkeypatch.setattr(realize, "_classify_core", lambda Q: other)
    for verb in ("classify", "realize"):
        assert run([verb, qfile("[3,3] [3,3] [3,3] [3,3]")]) == (3, "")
