"""Text forms for complex numbers, domains, and map expressions.

Complex literals use the "a+bi" / "a-bi" shape with decimal reals ("0.5-0.25i",
"i", "0+1i"); domains serialize as "unitdisk", "upperhalfplane", "disk:cx,cy,r"
and "halfplane:nx,ny,offset".  Maps follow the grammar

    map      := mobius | blaschke | extremal | compose
    mobius   := "mobius:" cx "," cx "," cx "," cx
    blaschke := "blaschke:" real ";" "[" (cx ("," cx)*)? "]"
    extremal := "extremal:" real "," real
    compose  := "compose(" map "," map ")"
    cx       := real | real sign ureal "i" | sign? "i"

where real is a signed decimal literal in ASCII digits and ureal an unsigned
one; a literal past the float range is refused.  Compositions nest at most
MAX_COMPOSE_DEPTH deep.  Malformed text raises ParseError with the position
where reading stopped and the tokens that could stand there (CLI exit 2).

The printers emit exactly these forms with shortest round-trip reals, so
parse(format(x)) always reproduces x.
"""

from __future__ import annotations

import json
import math
import re

from .domains import Disk, HalfPlane, PlanarDomain, UnitDisk, UpperHalfPlane
from .errors import ParseError
from .maps import Blaschke, Compose, Extremal, MapExpr, Mobius

__all__ = [
    "parse_real",
    "parse_complex",
    "format_complex",
    "format_real",
    "parse_domain",
    "format_domain",
    "parse_map",
    "format_map",
]


def _to_json(payload) -> str:
    """Compact JSON for every report; a non-finite float raises ValueError
    rather than printing as Infinity or NaN, which are not JSON."""
    return json.dumps(payload, separators=(",", ":"), allow_nan=False)


_REAL = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_SIGNED_REAL = re.compile(rf"[+-]?{_REAL}")
_UNSIGNED_REAL = re.compile(_REAL)
# A whole cx in one match: sign? "i" (group 1), or a real (2) with an optional
# sign (3), unsigned real (4) and "i".
_CX = re.compile(rf"([+-]?)i|([+-]?{_REAL})(?:([+-])({_REAL})i)?")

# Deepest composition parse_map reads.  Maps nested this deep still evaluate,
# differentiate, print, repr and hash inside Python's default recursion limit
# (repr, three frames per level, is the first to fail, past 300).
MAX_COMPOSE_DEPTH = 200


def _real(text: str, pos: int, pattern=_SIGNED_REAL) -> tuple[float, int]:
    match = pattern.match(text, pos)
    if match is None:
        raise ParseError("expected a decimal real", pos, ("real",))
    value = float(match.group())
    if math.isinf(value):
        raise ParseError(f"real literal {match.group()!r} overflows the float range", pos, ("real",))
    return value, match.end()


def _expect(text: str, pos: int, literal: str) -> int:
    if not text.startswith(literal, pos):
        raise ParseError(f"expected {literal!r}", pos, (literal,))
    return pos + len(literal)


def _done(text: str, pos: int):
    if pos != len(text):
        raise ParseError(f"unexpected trailing input {text[pos:]!r}", pos, ("end",))


def format_real(x: float) -> str:
    return repr(float(x))


def format_complex(z: complex, real=format_real) -> str:
    """"a+bi" / "a-bi" text of z, or just "a" when Im z == 0; real formats
    each part (shortest round-trip by default, so parse_complex inverts it)."""
    if z.imag == 0.0:
        return real(z.real)
    sign = "+" if z.imag > 0.0 else "-"
    return f"{real(z.real)}{sign}{real(abs(z.imag))}i"


def _cx(text: str, pos: int) -> tuple[complex, int]:
    match = _CX.match(text, pos)
    if match is not None:
        sign, real, op, imag = match.groups()
        if real is None:
            return (-1j if sign == "-" else 1j), match.end()
        x = float(real)
        if imag is not None:
            y = float(imag)
            if not (math.isinf(x) or math.isinf(y)):
                return complex(x, -y if op == "-" else y), match.end()
        elif not (math.isinf(x) or text.startswith(("+", "-"), match.end())):
            return complex(x, 0.0), match.end()
    # No literal at pos, a part past the float range, or a sign not followed by
    # an unsigned real and "i": read the parts one by one, which raises there.
    _, end = _real(text, pos)
    _, end = _real(text, end + 1, _UNSIGNED_REAL)
    _expect(text, end, "i")
    raise AssertionError("unreachable: _CX takes every well-formed literal")


def parse_real(text: str) -> float:
    """A signed decimal real; nan, inf and literals past the float range are ParseErrors."""
    x, pos = _real(text, 0)
    _done(text, pos)
    return x


def parse_complex(text: str) -> complex:
    z, pos = _cx(text, 0)
    _done(text, pos)
    return z


def format_domain(domain: PlanarDomain) -> str:
    if isinstance(domain, UnitDisk):
        return "unitdisk"
    if isinstance(domain, UpperHalfPlane):
        return "upperhalfplane"
    if isinstance(domain, Disk):
        c = domain.center
        return f"disk:{format_real(c.real)},{format_real(c.imag)},{format_real(domain.radius)}"
    if isinstance(domain, HalfPlane):
        n = domain.normal
        return f"halfplane:{format_real(n.real)},{format_real(n.imag)},{format_real(domain.offset)}"
    raise TypeError(f"not a planar domain: {domain!r}")


def parse_domain(text: str) -> PlanarDomain:
    if text == "unitdisk":
        return UnitDisk()
    if text == "upperhalfplane":
        return UpperHalfPlane()
    for prefix, kind in (("disk:", Disk), ("halfplane:", HalfPlane)):
        if text.startswith(prefix):
            x, pos = _real(text, len(prefix))
            y, pos = _real(text, _expect(text, pos, ","))
            t, pos = _real(text, _expect(text, pos, ","))
            _done(text, pos)
            return kind(complex(x, y), t)
    raise ParseError(
        "unknown domain", 0, ("unitdisk", "upperhalfplane", "disk:", "halfplane:")
    )


def _map(text: str, pos: int, depth: int) -> tuple[MapExpr, int]:
    if text.startswith("mobius:", pos):
        a, pos = _cx(text, pos + 7)
        b, pos = _cx(text, _expect(text, pos, ","))
        c, pos = _cx(text, _expect(text, pos, ","))
        d, pos = _cx(text, _expect(text, pos, ","))
        return Mobius(a, b, c, d), pos
    if text.startswith("blaschke:", pos):
        rotation, pos = _real(text, pos + 9)
        pos = _expect(text, _expect(text, pos, ";"), "[")
        zeros = []
        if not text.startswith("]", pos):
            z, pos = _cx(text, pos)
            zeros.append(z)
            while text.startswith(",", pos):
                z, pos = _cx(text, pos + 1)
                zeros.append(z)
        pos = _expect(text, pos, "]")
        return Blaschke(rotation, tuple(zeros)), pos
    if text.startswith("extremal:", pos):
        a, pos = _real(text, pos + 9)
        b, pos = _real(text, _expect(text, pos, ","))
        return Extremal(a, b), pos
    if text.startswith("compose(", pos):
        if depth == MAX_COMPOSE_DEPTH:
            raise ParseError(
                f"compositions nest deeper than {MAX_COMPOSE_DEPTH}", pos, ("mobius:", "blaschke:", "extremal:")
            )
        outer, pos = _map(text, pos + 8, depth + 1)
        inner, pos = _map(text, _expect(text, pos, ","), depth + 1)
        return Compose(outer, inner), _expect(text, pos, ")")
    raise ParseError(
        "unknown map", pos, ("mobius:", "blaschke:", "extremal:", "compose(")
    )


def parse_map(text: str) -> MapExpr:
    m, pos = _map(text, 0, 0)
    _done(text, pos)
    return m


def format_map(m: MapExpr) -> str:
    if isinstance(m, Mobius):
        parts = ",".join(format_complex(v) for v in (m.a, m.b, m.c, m.d))
        return f"mobius:{parts}"
    if isinstance(m, Blaschke):
        zeros = ",".join(format_complex(z) for z in m.zeros)
        return f"blaschke:{format_real(m.rotation)};[{zeros}]"
    if isinstance(m, Extremal):
        return f"extremal:{format_real(m.a)},{format_real(m.b)}"
    if isinstance(m, Compose):
        return f"compose({format_map(m.outer)},{format_map(m.inner)})"
    raise TypeError(f"not a map expression: {m!r}")
