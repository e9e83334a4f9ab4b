"""Text forms for complex numbers, domains, and map expressions.

Complex literals use the "a+bi" / "a-bi" shape with decimal reals ("0.5-0.25i",
"i", "0+1i"); domains serialize as "unitdisk", "upperhalfplane", "disk:cx,cy,r"
and "halfplane:nx,ny,offset".  Maps follow the grammar

    map      := mobius | blaschke | extremal | compose
    mobius   := "mobius:" cx "," cx "," cx "," cx
    blaschke := "blaschke:" real ";" "[" cx ("," cx)* "]"
    extremal := "extremal:" real "," real
    compose  := "compose(" map "," map ")"
    cx       := real | real sign real "i" | sign? "i"

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


_SIGNED_REAL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_UNSIGNED_REAL = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str):
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.pos, (literal,))
        self.pos += len(literal)

    def take_real(self, signed: bool = True) -> float:
        pattern = _SIGNED_REAL if signed else _UNSIGNED_REAL
        match = pattern.match(self.text, self.pos)
        if match is None:
            raise ParseError("expected a decimal real", self.pos, ("real",))
        value = float(match.group())
        if math.isinf(value):
            raise ParseError(f"real literal {match.group()!r} overflows the float range", self.pos, ("real",))
        self.pos = match.end()
        return value

    def done(self):
        if self.pos != len(self.text):
            raise ParseError(f"unexpected trailing input {self.text[self.pos:]!r}", self.pos, ("end",))


def format_real(x: float) -> str:
    return repr(float(x))


def format_complex(z: complex, real=format_real) -> str:
    """"a+bi" / "a-bi" text of z, or just "a" when Im z == 0; real formats
    each part (shortest round-trip by default, so parse_complex inverts it)."""
    if z.imag == 0.0:
        return real(z.real)
    sign = "+" if z.imag > 0.0 else "-"
    return f"{real(z.real)}{sign}{real(abs(z.imag))}i"


def _parse_cx(cur: _Cursor) -> complex:
    ch = cur.peek()
    # sign? "i"
    if ch == "i":
        cur.pos += 1
        return 1j
    if ch in ("+", "-") and cur.text.startswith("i", cur.pos + 1):
        cur.pos += 2
        return 1j if ch == "+" else -1j
    real = cur.take_real(signed=True)
    ch = cur.peek()
    if ch in ("+", "-"):
        cur.pos += 1
        imag = cur.take_real(signed=False)
        cur.expect("i")
        return complex(real, imag if ch == "+" else -imag)
    return complex(real, 0.0)


def parse_complex(text: str) -> complex:
    cur = _Cursor(text)
    z = _parse_cx(cur)
    cur.done()
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
    if text.startswith("disk:"):
        cur = _Cursor(text)
        cur.pos = len("disk:")
        cx = cur.take_real()
        cur.expect(",")
        cy = cur.take_real()
        cur.expect(",")
        r = cur.take_real()
        cur.done()
        return Disk(complex(cx, cy), r)
    if text.startswith("halfplane:"):
        cur = _Cursor(text)
        cur.pos = len("halfplane:")
        nx = cur.take_real()
        cur.expect(",")
        ny = cur.take_real()
        cur.expect(",")
        offset = cur.take_real()
        cur.done()
        return HalfPlane(complex(nx, ny), offset)
    raise ParseError(
        "unknown domain", 0, ("unitdisk", "upperhalfplane", "disk:", "halfplane:")
    )


def _parse_map(cur: _Cursor) -> MapExpr:
    if cur.text.startswith("mobius:", cur.pos):
        cur.pos += len("mobius:")
        a = _parse_cx(cur)
        cur.expect(",")
        b = _parse_cx(cur)
        cur.expect(",")
        c = _parse_cx(cur)
        cur.expect(",")
        d = _parse_cx(cur)
        return Mobius(a, b, c, d)
    if cur.text.startswith("blaschke:", cur.pos):
        cur.pos += len("blaschke:")
        rotation = cur.take_real()
        cur.expect(";")
        cur.expect("[")
        zeros = []
        if cur.peek() != "]":
            zeros.append(_parse_cx(cur))
            while cur.peek() == ",":
                cur.pos += 1
                zeros.append(_parse_cx(cur))
        cur.expect("]")
        return Blaschke(rotation, tuple(zeros))
    if cur.text.startswith("extremal:", cur.pos):
        cur.pos += len("extremal:")
        a = cur.take_real()
        cur.expect(",")
        b = cur.take_real()
        return Extremal(a, b)
    if cur.text.startswith("compose(", cur.pos):
        cur.pos += len("compose(")
        outer = _parse_map(cur)
        cur.expect(",")
        inner = _parse_map(cur)
        cur.expect(")")
        return Compose(outer, inner)
    raise ParseError(
        "unknown map", cur.pos, ("mobius:", "blaschke:", "extremal:", "compose(")
    )


def parse_map(text: str) -> MapExpr:
    cur = _Cursor(text)
    m = _parse_map(cur)
    cur.done()
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
