"""Plain-Fraction reference for the algebra's tables, written apart from mhv.

Elements are dicts {(tag, index): Fraction} with tags "d", "h", "c", "l";
("h", n) stands for h_{n+1/2} and the central vectors carry index None.
The tables are those of PAPER.md, evaluated at a fixed rational e:

    [d_m, d_n]     = (m-n) d_{m+n} + (m^3-m)/12 delta_{m+n,0} c
    [d_m, h_n]     = -(n+1/2) h_{m+n}          ([h_n, d_m] = -[d_m, h_n])
    [h_m, h_n]     = (m+1/2) delta_{m+n+1,0} l
    d_m d_n        = -n(1+e n)/(1+e(m+n)) d_{m+n}
                     + 1/24 (m^3-m+(e-1/e) m^2) delta_{m+n,0} c
    d_m h_n        = -(n+1/2) h_{m+n}
    h_m h_n        = 1/2 (m+1/2) delta_{m+n+1,0} l

and the biderivation family f(x, y) = lambda [x, y] + Upsilon(x, y) with
Upsilon(d_m, d_n) = sum_k (k+1/2) mu_k h_{m+n+k}.  Rendered mhv elements
with rational coefficients are read back with parse_rendered.
"""

from __future__ import annotations

import re
from fractions import Fraction

C = ("c", None)
L = ("l", None)


def add_into(acc: dict, key: tuple, value: Fraction) -> None:
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def combine(*scaled) -> dict:
    """sum of coeff * element over (coeff, element) pairs."""
    acc: dict = {}
    for coeff, element in scaled:
        for key, value in element.items():
            add_into(acc, key, coeff * value)
    return acc


def _bilinear(table, x: dict, y: dict) -> dict:
    acc: dict = {}
    for u, cu in x.items():
        for v, cv in y.items():
            for key, value in table(u, v).items():
                add_into(acc, key, cu * cv * value)
    return acc


def basis_bracket(u: tuple, v: tuple, central: bool = True) -> dict:
    (tu, m), (tv, n) = u, v
    if tu in "cl" or tv in "cl":
        return {}
    out: dict = {}
    if tu == "d" and tv == "d":
        if m != n:
            out[("d", m + n)] = Fraction(m - n)
        if central and m + n == 0 and m**3 != m:
            out[C] = Fraction(m**3 - m, 12)
    elif tu == "d":
        out[("h", m + n)] = -Fraction(2 * n + 1, 2)
    elif tv == "d":
        out[("h", m + n)] = Fraction(2 * m + 1, 2)
    elif central and m + n + 1 == 0:
        out[L] = Fraction(2 * m + 1, 2)
    return out


def bracket(x: dict, y: dict, central: bool = True) -> dict:
    return _bilinear(lambda u, v: basis_bracket(u, v, central), x, y)


def basis_product(u: tuple, v: tuple, e: Fraction) -> dict:
    (tu, m), (tv, n) = u, v
    if tu in "cl" or tv in "cl" or (tu == "h" and tv == "d"):
        return {}
    out: dict = {}
    if tu == "d" and tv == "d":
        coeff = -n * (1 + e * n) / (1 + e * (m + n))
        if coeff:
            out[("d", m + n)] = coeff
        if m + n == 0:
            central = (m**3 - m + (e - 1 / e) * m * m) / 24
            if central:
                out[C] = central
    elif tu == "d":
        out[("h", m + n)] = -Fraction(2 * n + 1, 2)
    elif m + n + 1 == 0:
        out[L] = Fraction(2 * m + 1, 4)
    return out


def product(x: dict, y: dict, e: Fraction) -> dict:
    return _bilinear(lambda u, v: basis_product(u, v, e), x, y)


def family(lam: Fraction, omega: dict):
    """The bilinear map lambda [., .] + Upsilon_omega as a function."""
    def upsilon(u: tuple, v: tuple) -> dict:
        if u[0] != "d" or v[0] != "d":
            return {}
        return {("h", u[1] + v[1] + k): Fraction(2 * k + 1, 2) * mu
                for k, mu in omega.items() if mu}

    def table(u: tuple, v: tuple) -> dict:
        return combine((lam, basis_bracket(u, v)), (1, upsilon(u, v)))

    return lambda x, y: _bilinear(table, x, y)


def basis(window: int, central: bool = True) -> list:
    """Basis vectors with indices in [-window, window], in mhv's order."""
    out = [("d", m) for m in range(-window, window + 1)]
    out += [("h", n) for n in range(-window, window + 1)]
    return out + ([C, L] if central else [])


def render_basis(u: tuple) -> str:
    tag, index = u
    if tag == "d":
        return f"d({index})"
    if tag == "h":
        return f"h({2 * index + 1}/2)"
    return tag


def triple_label(x: tuple, y: tuple, z: tuple) -> str:
    return f"({render_basis(x)}, {render_basis(y)}, {render_basis(z)})"


def bider_residuals(f, x: tuple, y: tuple, z: tuple) -> dict:
    """Both Lie-derivation axioms of f at a basis triple, over the full
    algebra."""
    ex, ey, ez = {x: 1}, {y: 1}, {z: 1}
    left = combine((1, f(bracket(ex, ey), ez)), (-1, bracket(f(ex, ez), ey)),
                   (-1, bracket(ex, f(ey, ez))))
    right = combine((1, f(ex, bracket(ey, ez))), (-1, bracket(f(ex, ey), ez)),
                    (-1, bracket(ey, f(ex, ez))))
    return {"bider.left": left, "bider.right": right}


def lsa_bider_residuals(f, x: tuple, y: tuple, z: tuple,
                        e: Fraction) -> dict:
    """Both derivation axioms of f for the left-symmetric product."""
    def prod(a: dict, b: dict) -> dict:
        return product(a, b, e)

    ex, ey, ez = {x: 1}, {y: 1}, {z: 1}
    left = combine((1, f(prod(ex, ey), ez)), (-1, prod(f(ex, ez), ey)),
                   (-1, prod(ex, f(ey, ez))))
    right = combine((1, f(ex, prod(ey, ez))), (-1, prod(f(ex, ey), ez)),
                    (-1, prod(ey, f(ex, ez))))
    return {"lsabider.left": left, "lsabider.right": right}


def sweep_failures(residuals, window: int) -> dict:
    """{(inputs, equation_id): residual} over every nonzero residual of a
    sweep over the full algebra's basis triples, labelled the way mhv
    labels its failures."""
    vectors = basis(window)
    out = {}
    for x in vectors:
        for y in vectors:
            for z in vectors:
                for eq_id, value in residuals(x, y, z).items():
                    if value:
                        out[(triple_label(x, y, z), eq_id)] = value
    return out


_TERM = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*)?(-?)(d\((-?\d+)\)|h\((-?\d+)/2\)|c|l)$")


def parse_rendered(text: str) -> dict:
    """Read back a rendered element whose coefficients are plain rationals,
    e.g. "-3/4*d(3) + h(5/2) - 1/2*c"; "0" is the zero element."""
    text = text.strip()
    if text == "0":
        return {}
    parts = re.split(r" ([+-]) ", text)
    out: dict = {}
    for sign, body in zip(["+"] + parts[1::2], parts[0::2]):
        match = _TERM.match(body)
        if match is None:
            raise ValueError(f"cannot read term {body!r} of {text!r}")
        coeff_text, minus, _, d_index, h_twice = match.groups()
        coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
        if (minus == "-") != (sign == "-"):
            coeff = -coeff
        if d_index is not None:
            key = ("d", int(d_index))
        elif h_twice is not None:
            if int(h_twice) % 2 == 0:
                raise ValueError(f"h index in {body!r} is not half-odd")
            key = ("h", (int(h_twice) - 1) // 2)
        else:
            key = (body[-1], None)
        if key in out or not coeff:
            raise ValueError(f"malformed element {text!r}")
        out[key] = coeff
    return out
