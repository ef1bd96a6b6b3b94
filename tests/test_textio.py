import json
import random

import pytest

from supersphere import textio
from supersphere.grassmann import Supernumber
from supersphere.randgen import Sampler
from supersphere.scalars import grat
from supersphere.spheres import (
    MatrixGroupElement,
    build_map,
    group_action,
    transition,
)
from supersphere.superconformal import to_n1
from supersphere.superfield import (
    RationalSuperfunction,
    ScalarPoly,
    SuperPolynomial,
)

L = 6


def test_supernumber_text_examples():
    x = textio.parse_supernumber("3/2 + (0+1i)*z[1]z[2]", L)
    expected = Supernumber(L, {0: grat("3/2"), 0b11: grat(0, 1)})
    assert x == expected
    assert textio.parse_supernumber("z[2]z[3] - 2", L) == \
        Supernumber(L, {0b110: grat(1), 0: grat(-2)})
    assert textio.parse_supernumber("-z[1]", L) == \
        Supernumber(L, {0b1: grat(-1)})


def test_supernumber_text_roundtrip():
    s = Sampler(random.Random(3), L)
    for _ in range(40):
        x = s.supernumber(5)
        assert textio.parse_supernumber(str(x), L) == x


def test_supernumber_json_roundtrip():
    s = Sampler(random.Random(5), L)
    for _ in range(25):
        x = s.supernumber(5)
        blob = json.dumps(textio.supernumber_to_json(x))
        assert textio.supernumber_from_json(json.loads(blob), L) == x


def test_superpoly_text_roundtrip():
    s = Sampler(random.Random(7), L)
    polys = [s.superpoly(z_span=(-2, 3)) for _ in range(30)]
    for p in polys + [SuperPolynomial.zero(L)]:
        assert textio.parse_superpoly(str(p), L) == p


def test_superpoly_handwritten():
    text = "z^2 + t+t-*(1 + z[1]z[2])*z^-1 - t-*(1/2)"
    p = textio.parse_superpoly(text, L)
    expected = SuperPolynomial(L, {
        (2, 0): Supernumber.one(L),
        (-1, 3): Supernumber.one(L) + Supernumber.monomial(L, (1, 2)),
        (0, 2): Supernumber.scalar(L, grat("-1/2")),
    })
    assert p == expected


def test_single_odd_variable_grammar():
    """Every superpolynomial carries t+ and t-: a bare t is no odd symbol."""
    for text in ("t*(z[1])*z + (2)", "t*z", "(2) + t*(1)", "t+t*(1)"):
        with pytest.raises(textio.ParseError):
            textio.parse_superpoly(text, L)


def test_rsf_json_roundtrip():
    s = Sampler(random.Random(11), L)
    for _ in range(20):
        F = s.rational_superfunction()
        blob = json.dumps(textio.rsf_to_json(F))
        back = textio.rsf_from_json(json.loads(blob), L)
        assert back == F


def test_map_json_roundtrip():
    # an N=2 superconformal map and an N=1 superanalytic one
    for m in (transition(3, L), Sampler(random.Random(19), L).n1_map()):
        blob = json.dumps(textio.map_to_json(m))
        back = textio.map_from_json(json.loads(blob))
        assert type(back) is type(m) and back == m


def test_to_json_writes_every_writer_type_through_its_writer():
    s = Sampler(random.Random(23), L)
    m = s.superconformal_map()
    values = [
        (s.supernumber(4), textio.supernumber_to_json),
        (s.rational_superfunction(), textio.rsf_to_json),
        (m, textio.map_to_json),
        (to_n1(m), textio.map_to_json),
        (s.automorphism_params(2), textio.params_to_json),
        (s.matrix_group_element(), textio.matrix_element_to_json),
    ]
    assert {type(v) for v, _ in values} == set(textio._WRITERS)
    for value, write in values:
        assert textio.to_json(value) == write(value)
        json.dumps(textio.to_json(value))
    g = values[-1][0]
    assert textio.to_json(g) == {k: textio.supernumber_to_json(getattr(g, k))
                                 for k in ("a", "b", "c", "d", "eps")}
    x = values[0][0]
    assert textio.to_json({"xs": [x], "pair": (1, 2), "n": 3}) == \
        {"xs": [textio.supernumber_to_json(x)], "pair": (1, 2), "n": 3}


def test_params_json_roundtrip():
    s = Sampler(random.Random(13), L)
    for n in range(-4, 5):
        p = s.automorphism_params(n)
        data = textio.params_to_json(p)
        assert list(data) == ["n", "L", "a", "b", "c", "d", "eps",
                              "psi_plus", "psi_minus"]
        back = textio.params_from_json(json.loads(json.dumps(data)))
        assert back == p
        assert build_map(back) == build_map(p)


def test_parse_errors():
    with pytest.raises(textio.ParseError):
        textio.parse_supernumber("3 + q[1]", L)
    with pytest.raises(textio.ParseError):
        textio.parse_superpoly("t+t+*(1)", L)
    # a superpolynomial term needs a parenthesized coefficient or a power
    # of z, with "*" before the power; blank text is no supernumber
    for text in ("3/2*z", "3", "t+", "(1)z", "()", ""):
        with pytest.raises(textio.ParseError):
            textio.parse_superpoly(text, L)
    for text in ("", "  "):
        with pytest.raises(textio.ParseError):
            textio.parse_supernumber(text, L)
    # a zero denominator and an unclosed parenthesis are outside the grammar
    for parse, text in ((textio.parse_supernumber, "1/0"),
                        (textio.parse_superpoly, "t-*(1/0)"),
                        (textio.parse_superpoly, "(1")):
        with pytest.raises(textio.ParseError):
            parse(text, L)
    # the README grammar has no exponents, doubled or bare signs, dangling
    # '*' or generators outside 1..L in increasing order
    for text in ("1e3", "--1", "+", "2*", "z[0]", "z[5]", "z[1]z[1]"):
        with pytest.raises(textio.ParseError):
            textio.parse_supernumber(text, 4)
    # the JSON readers take a number only in the form str writes it
    for text in ("1e3", " 2_0 ", "+3", "02", "2/4", "1/0", "2j", "-2i", 5):
        with pytest.raises(textio.ParseError):
            textio.supernumber_from_json([{"index": [], "re": text,
                                           "im": "0"}], 4)
    for den in ({"0": "1e3", "1": "2j"}, {"0": "-3", "1": " 1"},
                {"0": "(0+1i)", "1": "1"}, {"0": "i", "1": "1"},
                {"0": "1", "1": "(1)"}, {"00": "1"}, {"+0": "1"}):
        with pytest.raises(textio.ParseError):
            textio.rsf_from_json({"num": [], "den": den}, 4)
    assert textio.rsf_from_json({"num": [], "den": {"0": "1"}}, 4).den.is_one()


def test_a_term_may_open_with_its_star():
    # sterm ::= [odd] ["*"] "(" supernumber ")" ... | [odd] ["*"] zpow
    assert textio.parse_superpoly("*z", L) == SuperPolynomial.z_power(L, 1)
    assert textio.parse_superpoly("*(2)", L) == \
        SuperPolynomial(L, {(0, 0): Supernumber.scalar(L, 2)})


def test_json_superpolynomials_are_read_strictly():
    one = [{"index": [], "re": "1", "im": "0"}]
    for z, odd in (("1", []), (1.0, []), (True, []), (0, ["t"]),
                   (0, ["t+", "t+"]), (0, ["t-", "t+"]), (0, "t+")):
        with pytest.raises(textio.ParseError):
            textio.superpoly_from_json([{"z": z, "odd": odd, "coeff": one}], L)
    twice = [{"z": 1, "odd": ["t-"], "coeff": one}] * 2
    with pytest.raises(textio.ParseError):
        textio.superpoly_from_json(twice, L)
    assert textio.superpoly_from_json(twice[:1], L) == \
        SuperPolynomial(L, {(1, 2): Supernumber.one(L)})


def test_json_supernumbers_are_read_strictly():
    def entry(index):
        return {"index": index, "re": "1", "im": "0"}

    with pytest.raises(textio.ParseError):
        textio.supernumber_from_json([entry([1, 2]), entry([1, 2])], L)
    for index in ([0], [L + 1], [2, 1], [1, 1], [True], [1.0], "1"):
        with pytest.raises(textio.ParseError):
            textio.supernumber_from_json([entry(index)], L)


def test_rsf_json_roundtrip_of_signed_denominator_coefficients():
    # str writes -3, -2i and (-1+2i); each is read back as it was written
    z = SuperPolynomial.z_power(L, 1)
    for root in (grat(3), grat(0, 2), grat(1, -2), grat("1/2", "-3/4")):
        F = RationalSuperfunction(z, ScalarPoly({1: grat(1), 0: -root}))
        data = json.loads(json.dumps(textio.rsf_to_json(F)))
        assert data["den"]["0"] == str(-root)
        assert textio.rsf_from_json(data, L) == F


@pytest.mark.parametrize("read, data", [
    (textio.superpoly_from_json, [{"z": 0, "coeff": []}]),
    (textio.supernumber_from_json, [{"index": [], "im": "0"}]),
    (textio.supernumber_from_json, [{"index": []}]),
    (textio.supernumber_from_json, {"index": [], "re": "1", "im": "0"}),
    (textio.supernumber_from_json, [[]]),
    (textio.supernumber_from_json, None),
    # a zero coefficient, which str never writes
    (textio.supernumber_from_json, [{"index": [1], "re": "0", "im": "0"}]),
    (textio.superpoly_from_json, [{"z": 0, "odd": [], "coeff": [
        {"index": [], "re": "0", "im": "0"}]}]),
    (textio.rsf_from_json, {"num": [], "den": {}}),
    (textio.rsf_from_json, {"num": [], "den": {"0": "0"}}),
    (textio.rsf_from_json, {"num": [], "den": {"0": "1", "1": "0"}}),
    (textio.rsf_from_json, {"num": []}),
    (textio.rsf_from_json, {"den": {"0": "1"}}),
    (textio.rsf_from_json, {"num": [], "den": ["1"]}),
])
def test_malformed_json_forms_raise_parse_error(read, data):
    with pytest.raises(textio.ParseError):
        read(data, 4)


ONE_FORM = textio.rsf_to_json(RationalSuperfunction.one(4))
PARAMS_FORM = textio.params_to_json(
    Sampler(random.Random(13), 4).automorphism_params(1))
# the identity at twist 1: its values are body-only, so its map form reads
# at L = 1 too
IDENTITY = group_action(1, MatrixGroupElement.identity(4))
IDENTITY_PARAMS_FORM = textio.params_to_json(IDENTITY.params)
IDENTITY_MAP_FORM = textio.map_to_json(IDENTITY.southern)


@pytest.mark.parametrize("read, data", [
    (textio.params_from_json, {"n": 1}),
    (textio.params_from_json, []),
    (textio.map_from_json, {"components": {}}),
    (textio.map_from_json, {"L": 4, "components": {"f": {}}}),
    (textio.map_from_json, {"L": 4}),
    # an N=1 form without its "xi"
    (textio.map_from_json, {"L": 4, "components": {
        name: textio.rsf_to_json(RationalSuperfunction.one(4))
        for name in ("f1", "psi", "g")}}),
    # the package's refusals of the value read: an N=1 form whose g has
    # zero body (NotInvertibleComponent), and parameters with a psi list of
    # the wrong length (InvalidParams)
    (textio.map_from_json, {"L": 4, "components": {
        "f1": ONE_FORM, "xi": ONE_FORM, "psi": ONE_FORM,
        "g": textio.rsf_to_json(RationalSuperfunction.zero(4))}}),
    (textio.params_from_json, dict(PARAMS_FORM, psi_plus=[])),
    # n and L are JSON integers, not bools (True == 1) or floats
    (textio.params_from_json, dict(IDENTITY_PARAMS_FORM, n=True)),
    (textio.params_from_json, dict(IDENTITY_PARAMS_FORM, n=1.0)),
    (textio.params_from_json, dict(IDENTITY_PARAMS_FORM, L=True)),
    (textio.params_from_json, dict(IDENTITY_PARAMS_FORM, L=4.0)),
    (textio.map_from_json, dict(IDENTITY_MAP_FORM, L=True)),
    (textio.map_from_json, dict(IDENTITY_MAP_FORM, L=4.0)),
])
def test_malformed_map_and_params_forms_raise_parse_error(read, data):
    with pytest.raises(textio.ParseError):
        read(data)
