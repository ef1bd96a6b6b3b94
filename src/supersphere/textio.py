"""Text and JSON serialization.

Supernumbers use the grammar (EBNF in the README):

    3/2 + (0+1i)*z[1]z[2] - z[3]

Superpolynomials extend it with powers of the even variable and odd
variable symbols, one parenthesized supernumber coefficient per term:

    t+t-*(1 + z[1]z[2])*z^-2 + (3/2)*z

JSON forms carry exact rationals as strings; every container round-trips
through its matching parse function, which reads a number only in the
form `str` writes it (`-3`, `1/2`, `-2i`, `(1/2-3/4i)`).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import GaussianRational, grat
from .grassmann import Supernumber, labels_from_mask, mask_from_labels
from .superfield import RationalSuperfunction, ScalarPoly, SuperPolynomial
from .superconformal import SuperconformalMap


class ParseError(ValueError):
    pass


_GEN = re.compile(r"z\[(\d+)\]")
_ZPOW = re.compile(r"z(?:\^(-?\d+))?$")
_RATIONAL = r"\d+(?:/\d+)?"
_COEFF = re.compile(rf"{_RATIONAL}i?|\([+-]?{_RATIONAL}(?:[+-]{_RATIONAL}i)?\)")


def _split_terms(text):
    """Split on top-level + and -, keeping signs; each sign takes a term."""
    terms = []
    depth = 0
    current = []
    sign = None  # the sign read for the term being collected, if any
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        # 't' guards the odd symbols t+ and t-; '^' guards z^-k exponents
        if depth == 0 and ch in "+-" and current and current[-1] not in "^*/(t":
            terms.append((sign or 1, "".join(current).strip()))
            sign = 1 if ch == "+" else -1
            current = []
            continue
        if not current and depth == 0:
            if ch.isspace():
                continue
            if ch in "+-":
                if sign is not None:
                    raise ParseError(f"two signs in a row in {text!r}")
                sign = 1 if ch == "+" else -1
                continue
        current.append(ch)
    if current:
        terms.append((sign or 1, "".join(current).strip()))
    elif sign is not None:
        raise ParseError(f"sign without a term in {text!r}")
    return terms


def parse_coefficient(text):
    text = text.strip()
    if not _COEFF.fullmatch(text):
        raise ParseError(f"bad coefficient {text!r}")
    try:
        return GaussianRational.parse(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"bad coefficient {text!r}") from exc


def parse_supernumber(text, L):
    """Parse the textual supernumber grammar over L generators."""
    out = Supernumber.zero(L)
    for sign, term in _split_terms(text):
        if "*" in term:
            coeff_text, _, mono_text = term.partition("*")
            coeff = parse_coefficient(coeff_text)
            if not mono_text.strip():
                raise ParseError(f"no monomial after '*' in {term!r}")
        elif term.startswith("z["):
            coeff, mono_text = grat(1), term
        else:
            coeff, mono_text = parse_coefficient(term), ""
        labels = []
        rest = mono_text.strip()
        while rest:
            m = _GEN.match(rest)
            if not m:
                raise ParseError(f"bad generator monomial: {mono_text!r}")
            labels.append(int(m.group(1)))
            rest = rest[m.end():]
        if sign < 0:
            coeff = -coeff
        try:
            mask = mask_from_labels(tuple(labels), L)
        except ValueError as exc:
            raise ParseError(f"bad generator monomial: {mono_text!r}") from exc
        out = out + Supernumber(L, {mask: coeff})
    return out


def parse_superpoly(text, L, n_odd=2):
    """Parse the superpolynomial grammar: [odd*](supernumber)[*z^k]."""
    names = ["t+", "t-"] if n_odd == 2 else ["t"]
    out = SuperPolynomial.zero(L, n_odd)
    for sign, term in _split_terms(text):
        mask = 0
        rest = term.strip()
        matched = True
        while matched:
            matched = False
            for bit, name in enumerate(names):
                if rest.startswith(name):
                    if mask & (1 << bit):
                        raise ParseError(f"repeated odd symbol in {term!r}")
                    mask |= 1 << bit
                    rest = rest[len(name):].lstrip("*").strip()
                    matched = True
                    break
        zexp = 0
        if not rest:
            coeff = Supernumber.one(L)
        elif rest.startswith("("):
            depth = 0
            for i, ch in enumerate(rest):
                depth += ch == "("
                depth -= ch == ")"
                if depth == 0:
                    break
            else:
                raise ParseError(f"unclosed parenthesis in {term!r}")
            coeff = parse_supernumber(rest[1:i], L)
            tail = rest[i + 1:].lstrip("*").strip()
            if tail:
                m = _ZPOW.match(tail)
                if not m:
                    raise ParseError(f"bad z power: {tail!r}")
                zexp = int(m.group(1) or 1)
        else:
            m = _ZPOW.match(rest)
            if m:
                zexp = int(m.group(1) or 1)
                coeff = Supernumber.one(L)
            elif "*" in rest:
                head, _, tail = rest.rpartition("*")
                m = _ZPOW.match(tail.strip())
                if m:
                    zexp = int(m.group(1) or 1)
                    coeff = parse_supernumber(head, L)
                else:
                    coeff = parse_supernumber(rest, L)
            else:
                coeff = parse_supernumber(rest, L)
        if sign < 0:
            coeff = -coeff
        out = out + SuperPolynomial(L, n_odd, {(zexp, mask): coeff})
    return out


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def supernumber_to_json(x):
    out = []
    for mask in sorted(x.terms, key=lambda m: (m.bit_count(), m)):
        c = x.terms[mask]
        out.append({
            "index": list(labels_from_mask(mask)),
            "re": str(c.re),
            "im": str(c.im),
        })
    return out


def _exact(text, read):
    """read(text), for text that is exactly what `str` writes for it."""
    try:
        if isinstance(text, str) and str(value := read(text)) == text:
            return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ParseError(f"bad number {text!r}: not in the form str writes")


def supernumber_from_json(data, L):
    terms = {}
    for entry in data:
        mask = mask_from_labels(tuple(entry["index"]), L)
        terms[mask] = GaussianRational(_exact(entry["re"], Fraction),
                                       _exact(entry["im"], Fraction))
    return Supernumber(L, terms)


def superpoly_to_json(p):
    names = ["t+", "t-"] if p.n_odd == 2 else ["t"]
    out = []
    for (k, mask) in sorted(p.terms, key=lambda km: (km[1], km[0])):
        out.append({
            "z": k,
            "odd": [names[b] for b in range(p.n_odd) if mask & (1 << b)],
            "coeff": supernumber_to_json(p.terms[(k, mask)]),
        })
    return out


def superpoly_from_json(data, L, n_odd=2):
    names = {"t+": 0, "t-": 1} if n_odd == 2 else {"t": 0}
    terms = {}
    for entry in data:
        mask = 0
        for name in entry["odd"]:
            mask |= 1 << names[name]
        terms[(entry["z"], mask)] = supernumber_from_json(entry["coeff"], L)
    return SuperPolynomial(L, n_odd, terms)


def rsf_to_json(F):
    return {
        "num": superpoly_to_json(F.num),
        "den": {str(k): str(c) for k, c in sorted(F.den.coeffs.items())},
    }


def rsf_from_json(data, L, n_odd=2):
    num = superpoly_from_json(data["num"], L, n_odd)
    den = ScalarPoly({
        _exact(k, int): _exact(c, GaussianRational.parse)
        for k, c in data["den"].items()
    })
    return RationalSuperfunction(num, den)


def map_to_json(m):
    """An N=2 superconformal or N=1 superanalytic map, by components."""
    return {
        "L": m.L,
        "components": {
            name: rsf_to_json(comp) for name, comp in m.components().items()
        },
    }


def map_from_json(data):
    L = data["L"]
    comps = data["components"]
    return SuperconformalMap(
        rsf_from_json(comps["f"], L),
        rsf_from_json(comps["g+"], L),
        rsf_from_json(comps["g-"], L),
        rsf_from_json(comps["psi+"], L),
        rsf_from_json(comps["psi-"], L),
        coefficient_bound=False,
    )


def params_to_json(p):
    return {
        "n": p.n,
        "L": p.L,
        **{name: supernumber_to_json(getattr(p, name))
           for name in ("a", "b", "c", "d", "eps")},
        "psi_plus": [supernumber_to_json(x) for x in p.psi_plus],
        "psi_minus": [supernumber_to_json(x) for x in p.psi_minus],
    }


def params_from_json(data):
    from .spheres import AutomorphismParams

    L = data["L"]
    return AutomorphismParams(
        data["n"],
        *(supernumber_from_json(data[name], L)
          for name in ("a", "b", "c", "d", "eps")),
        psi_plus=[supernumber_from_json(x, L) for x in data["psi_plus"]],
        psi_minus=[supernumber_from_json(x, L) for x in data["psi_minus"]],
    )
