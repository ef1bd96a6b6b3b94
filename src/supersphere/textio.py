"""Text and JSON serialization.

Supernumbers use the grammar (EBNF in the README):

    3/2 + (0+1i)*z[1]z[2] - z[3]

Superpolynomials extend it with powers of the even variable and odd
variable symbols, one parenthesized supernumber coefficient per term:

    t+t-*(1 + z[1]z[2])*z^-2 + (3/2)*z

Each grammar is one term pattern, `_SUPERNUMBER_TERM` and
`_SUPERPOLY_TERM`, which `_signed_terms` matches from the start of the
text to its end.

JSON forms carry exact rationals as strings; `to_json` writes each
package value through its one writer, and every form but the matrix group
element's reads back through its parse function, which reads a number
only in the form `str` writes it (`-3`, `1/2`, `-2i`, `(1/2-3/4i)`).
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction

from .scalars import GaussianRational, grat
from .grassmann import Supernumber, labels_from_mask, mask_from_labels
from .superfield import (ODD_NAMES, RationalSuperfunction, ScalarPoly,
                         SuperPolynomial, SuperfieldError)
from .superconformal import N1SuperanalyticMap, SuperconformalMap
from .spheres import AutomorphismParams, MatrixGroupElement


class ParseError(ValueError):
    pass


# Every term may open with a sign, and every term but the first must.
# Whitespace may stand around a sign and around "*", and at either end of
# the text, but nowhere inside a coefficient, a monomial or a power of z.
_SIGN = r"\s*(?P<sign>[+-]?)\s*"
_RATIONAL = r"\d+(?:/\d+)?"
# the imaginary form before the real one, so that 3/2i is read whole
_COEFF = re.compile(rf"(?P<im>{_RATIONAL})i|(?P<re>{_RATIONAL})"
                    rf"|\((?P<pre>[+-]?{_RATIONAL})(?:(?P<pim>[+-]{_RATIONAL})i)?\)")
_SIGNED_COEFF = re.compile(rf"(?P<sign>[+-]?)(?:{_COEFF.pattern})")
_MONOMIAL = r"(?:z\[\d+\])+"
_GEN = re.compile(r"z\[(\d+)\]")
_SUPERNUMBER_TERM = re.compile(
    rf"{_SIGN}(?:(?P<coeff>{_COEFF.pattern})(?:\s*\*\s*(?P<mono>{_MONOMIAL}))?"
    rf"|(?P<bare_mono>{_MONOMIAL}))")
_ZPOW = r"z(?:\^-?\d+)?"
# the odd monomial is t+, t- or t+t-, as `str` writes it; a coefficient is
# a parenthesized supernumber, whose own coefficients may be parenthesized
# once more
_PLUS, _MINUS = map(re.escape, ODD_NAMES)
_SUPERPOLY_TERM = re.compile(
    rf"{_SIGN}(?P<odd>{_PLUS}(?:{_MINUS})?|{_MINUS})?(?:\s*\*\s*)?"
    rf"(?:\((?P<coeff>(?:[^()]|\([^()]*\))*)\)(?:\s*\*\s*(?P<zpow>{_ZPOW}))?"
    rf"|(?P<bare_zpow>{_ZPOW}))")


def _signed_terms(term, text):
    """The matches of the term pattern that fill text from start to end;
    ParseError where none matches or a later term has no sign."""
    pos, end = 0, len(text.rstrip())
    while True:
        m = term.match(text, pos)
        if m is None or (pos and not m["sign"]):
            raise ParseError(f"{text!r} leaves the grammar at {text[pos:]!r}")
        yield m
        pos = m.end()
        if pos == end:
            return


def _scalar(m):
    """The scalar of the `_COEFF` groups of match m."""
    try:
        return GaussianRational(m["re"] or m["pre"] or 0, m["im"] or m["pim"] or 0)
    except ZeroDivisionError as exc:
        raise ParseError(f"bad coefficient {m[0].strip()!r}") from exc


def parse_coefficient(text):
    """A coefficient of the grammar led by an optional sign, so also every
    form `str` writes for a scalar: `-3`, `1/2`, `-2i`, `(1/2-3/4i)`."""
    m = _SIGNED_COEFF.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"bad coefficient {text!r}")
    return -_scalar(m) if m["sign"] == "-" else _scalar(m)


def parse_supernumber(text, L):
    """Parse the textual supernumber grammar over L generators."""
    out = Supernumber.zero(L)
    for m in _signed_terms(_SUPERNUMBER_TERM, text):
        coeff = grat(1) if m["coeff"] is None else _scalar(m)
        if m["sign"] == "-":
            coeff = -coeff
        mono = m["mono"] or m["bare_mono"] or ""
        try:
            mask = mask_from_labels(tuple(map(int, _GEN.findall(mono))), L)
        except ValueError as exc:
            raise ParseError(f"bad generator monomial: {mono!r}") from exc
        out = out + Supernumber(L, {mask: coeff})
    return out


def parse_superpoly(text, L):
    """Parse the superpolynomial grammar: [odd][*](supernumber)[*z^k] or
    [odd][*]z^k terms, or the 0 that `str` writes for zero."""
    out = SuperPolynomial.zero(L)
    if text.strip() == "0":
        return out
    for m in _signed_terms(_SUPERPOLY_TERM, text):
        mask = _odd_mask(m["odd"] or "")
        coeff = (Supernumber.one(L) if m["coeff"] is None
                 else parse_supernumber(m["coeff"], L))
        if m["sign"] == "-":
            coeff = -coeff
        zpow = m["zpow"] or m["bare_zpow"]
        zexp = 0 if zpow is None else int(zpow[2:] or 1)
        out = out + SuperPolynomial(L, {(zexp, mask): coeff})
    return out


def _odd_mask(symbols):
    """The odd mask of the symbols, read by name: "t+t-" or ["t+", "t-"]."""
    return sum(1 << b for b, name in enumerate(ODD_NAMES) if name in symbols)


def _odd_symbols(mask):
    """The odd symbols of the mask, in the order `str` writes them."""
    return [name for b, name in enumerate(ODD_NAMES) if mask >> b & 1]


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def supernumber_to_json(x):
    return [{"index": list(labels_from_mask(mask)), "re": str(c.re),
             "im": str(c.im)}
            for mask, c in sorted(x.terms.items(),
                                  key=lambda mc: (mc[0].bit_count(), mc[0]))]


def _reader(read):
    """read, raising ParseError, its message led by the reader's name, for
    data that is not the JSON form it reads: a missing key, a wrong
    container, a bad value, a zero denominator, or a value the package
    refuses (a `SuperfieldError`, such as `InvalidParams`)."""
    @functools.wraps(read)
    def checked(*args, **kwargs):
        try:
            return read(*args, **kwargs)
        except ParseError:
            raise
        except (AttributeError, LookupError, TypeError, ValueError,
                ZeroDivisionError, SuperfieldError) as exc:
            raise ParseError(f"{read.__name__}: {exc!r}") from exc
    return checked


def _exact(text, read):
    """read(text), for text that is exactly what `str` writes for it."""
    try:
        if isinstance(text, str) and str(value := read(text)) == text:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad number {text!r}: not in the form str writes")


def _integer(value):
    """value, if it is a JSON integer and not a bool."""
    if type(value) is not int:
        raise ParseError(f"{value!r} is not an integer")
    return value


@_reader
def supernumber_from_json(data, L):
    terms = {}
    for entry in data:
        labels = tuple(map(_integer, entry["index"]))
        mask = mask_from_labels(labels, L)
        if mask in terms:
            raise ParseError(f"repeated generator index {labels}")
        terms[mask] = GaussianRational(_exact(entry["re"], Fraction),
                                       _exact(entry["im"], Fraction))
    if not all(terms.values()):
        raise ParseError("str writes no zero coefficient")
    return Supernumber(L, terms)


def superpoly_to_json(p):
    return [{"z": k, "odd": _odd_symbols(mask), "coeff": supernumber_to_json(c)}
            for (k, mask), c in sorted(p.coefficients().items(),
                                       key=lambda kc: (kc[0][1], kc[0][0]))]


@_reader
def superpoly_from_json(data, L):
    terms = {}
    for entry in data:
        mask = _odd_mask(entry["odd"])
        if entry["odd"] != _odd_symbols(mask):
            raise ParseError(f"odd symbols {entry['odd']!r} are not "
                             f"{ODD_NAMES}, in order, at most once")
        key = (_integer(entry["z"]), mask)
        if key in terms:
            raise ParseError(f"repeated term {key}")
        terms[key] = supernumber_from_json(entry["coeff"], L)
    return SuperPolynomial(L, terms)


def rsf_to_json(F):
    return {
        "num": superpoly_to_json(F.num),
        "den": {str(k): str(c) for k, c in sorted(F.den.coeffs.items())},
    }


@_reader
def rsf_from_json(data, L):
    num = superpoly_from_json(data["num"], L)
    den = ScalarPoly({
        _exact(k, int): _exact(c, parse_coefficient)
        for k, c in data["den"].items()
    })
    if len(den.coeffs) != len(data["den"]):
        raise ParseError("str writes no zero coefficient")
    return RationalSuperfunction(num, den)


def map_to_json(m):
    """An N=2 superconformal or N=1 superanalytic map, by components."""
    return {
        "L": m.L,
        "components": {
            name: rsf_to_json(comp) for name, comp in m.components().items()
        },
    }


@_reader
def map_from_json(data):
    """The map of `map_to_json`'s form: N=1 superanalytic when its
    components are named f1, xi, psi, g, else N=2 superconformal."""
    comps, L = data["components"], _integer(data["L"])
    cls = N1SuperanalyticMap if "f1" in comps else SuperconformalMap
    return cls(*(rsf_from_json(comps[name], L) for name in cls._NAMES),
               coefficient_bound=False)


def params_to_json(p):
    return {
        "n": p.n,
        "L": p.L,
        **{name: supernumber_to_json(getattr(p, name))
           for name in ("a", "b", "c", "d", "eps")},
        "psi_plus": [supernumber_to_json(x) for x in p.psi_plus],
        "psi_minus": [supernumber_to_json(x) for x in p.psi_minus],
    }


@_reader
def params_from_json(data):
    L = _integer(data["L"])
    return AutomorphismParams(
        _integer(data["n"]),
        *(supernumber_from_json(data[name], L)
          for name in ("a", "b", "c", "d", "eps")),
        psi_plus=[supernumber_from_json(x, L) for x in data["psi_plus"]],
        psi_minus=[supernumber_from_json(x, L) for x in data["psi_minus"]],
    )


def matrix_element_to_json(g):
    """A matrix group element by its supernumbers a, b, c, d and eps."""
    return {k: supernumber_to_json(getattr(g, k)) for k in g.__slots__}


# the writer of each package type a report operand can hold
_WRITERS = {
    Supernumber: supernumber_to_json,
    RationalSuperfunction: rsf_to_json,
    SuperconformalMap: map_to_json,
    N1SuperanalyticMap: map_to_json,
    AutomorphismParams: params_to_json,
    MatrixGroupElement: matrix_element_to_json,
}


def to_json(value):
    """value in its JSON form: package values through their writer, dicts
    and lists entry by entry; tuples and plain JSON values as they are."""
    if isinstance(value, dict):
        return {k: to_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [to_json(x) for x in value]
    write = _WRITERS.get(type(value))
    return value if write is None else write(value)
