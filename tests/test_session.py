import pytest

from jstretch import lengths, reductions
from jstretch.errors import NonPrimeChar, SessionSyntaxError, UnknownVariable
from jstretch.report import analyze
from jstretch.session import SessionConfig, parse_session

SCRIPT = """
# thickened line, r = 3
ring R vars x,y,z char 32003 order grevlex
relations R (x^4, x*z, y*z)
ideal I in R (x, y)
assert I G_d AN_minus depth_RI=1
analyze I seed=42 trials=5
"""


def test_parse_full_script():
    session = parse_session(SCRIPT)
    assert set(session.ideals) == {"I"}
    amb = session.ambients["R"]
    assert amb.ring.names == ("x", "y", "z")
    assert len(amb.relations) == 3
    assert amb.dimension == 1
    asserted = session.asserted["I"]
    assert asserted.G_d and asserted.AN_minus and asserted.depth_RI == 1
    (cmd,) = session.commands
    assert cmd.ideal == "I" and cmd.seed == 42 and cmd.trials == 5


def test_empty_input():
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("# nothing here\n")
    assert "no ring declared" in str(err.value)


def test_duplicate_ideal_name():
    text = "ring R vars x,y\nideal I in R (x)\nideal I in R (y)\n"
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(text)
    assert "'I'" in str(err.value)
    assert err.value.line == 3


def test_unknown_variable_position():
    text = "ring R vars x,y\nideal I in R (x + w)\n"
    with pytest.raises(UnknownVariable) as err:
        parse_session(text)
    assert err.value.line == 2
    assert "w" in str(err.value)


def test_non_prime_characteristic():
    with pytest.raises(NonPrimeChar):
        parse_session("ring R vars x char 10\n")
    with pytest.raises(NonPrimeChar):
        SessionConfig(char=9)


def test_relations_must_precede_ideals():
    text = "ring R vars x,y\nideal I in R (x)\nrelations R (x^2)\n"
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(text)
    assert "precede" in str(err.value)


def test_unknown_statement_and_trailing_garbage():
    with pytest.raises(SessionSyntaxError):
        parse_session("ring R vars x\nfrobnicate R\n")
    with pytest.raises(SessionSyntaxError):
        parse_session("ring R vars x extra\n")


def test_unknown_ideal_in_analyze():
    with pytest.raises(SessionSyntaxError):
        parse_session("ring R vars x\nanalyze J\n")


def test_polynomials_parse_with_free_whitespace():
    text = "ring R vars x,y\nideal I in R ( x^2*y  -  3*x ,\n   y^3 + 1 - 1 )\n"
    session = parse_session(text)
    gens = session.ideals["I"].generators
    assert len(gens) == 2
    ring = session.ambients["R"].ring
    assert gens[0] == ring.parse("x^2*y - 3*x")
    assert gens[1] == ring.parse("y^3")


def test_lex_order_option():
    session = parse_session("ring R vars x,y order lex\nideal I in R (x)\n")
    assert str(session.ambients["R"].ring.order) == "lex"


def test_report_caps_are_the_caps_that_ran():
    session = parse_session(SCRIPT, SessionConfig(gb_degree_cap=25))
    caps = analyze(session.ideals["I"], trials=1).provenance.caps
    assert caps.gb_degree == 25
    assert caps.truncation == lengths.TRUNCATION_CAP
    assert caps.search == reductions.SEARCH_CAP
    with pytest.raises(ValueError):
        SessionConfig(gb_degree_cap=0)
