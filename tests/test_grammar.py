import pytest

from jmetric.domains import Disk, HalfPlane, UnitDisk, UpperHalfPlane
from jmetric.errors import ParseError
from jmetric.grammar import (
    MAX_COMPOSE_DEPTH,
    format_complex,
    format_domain,
    format_map,
    parse_complex,
    parse_domain,
    parse_map,
    parse_real,
)
from jmetric.maps import Blaschke, Compose, Extremal, Mobius, apply, derivative
from jmetric.sampling import Uniforms, substream
from jmetric.verify import _disk_maps, _halfplane_maps, check_lipschitz_pair


class TestComplexForms:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.5-0.25i", 0.5 - 0.25j),
            ("i", 1j),
            ("0+1i", 1j),
            ("-i", -1j),
            ("+i", 1j),
            ("2", 2 + 0j),
            ("-0.5", -0.5 + 0j),
            ("1e-3+2.5e4i", 1e-3 + 2.5e4j),
            ("-1.5e2-0.5i", -150 - 0.5j),
            ("1e-400+1i", 1j),  # underflow to 0 is accepted
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("bad", ["2i", "1+i", "", "abc", "1+2", "1 + 2i", "1e400", "1-1e400i", "-2e308"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_complex(bad)

    def test_round_trip(self):
        u = Uniforms(substream(61, 0))
        for _ in range(500):
            z = complex(u.uniform(-1e3, 1e3), u.uniform(-1e3, 1e3))
            assert parse_complex(format_complex(z)) == z
        assert parse_complex(format_complex(1j)) == 1j
        assert parse_complex(format_complex(-0.25 + 0j)) == -0.25

    def test_round_trip_extreme_magnitudes(self):
        # repr emits exponent forms like 1e+21 and 3e-07; both must re-parse
        for z in (complex(1e21, -3e-7), complex(-2.5e-300, 4e250), complex(0.0, -0.0)):
            assert parse_complex(format_complex(z)) == z

    def test_custom_real_formatter(self):
        def fmt3(x):
            return f"{x:.3g}"

        assert format_complex(0.123456 - 2.5e-7j, fmt3) == "0.123-2.5e-07i"
        assert format_complex(complex(-1.0, 0.0), fmt3) == "-1"

    def test_error_position(self):
        with pytest.raises(ParseError) as info:
            parse_complex("0.5+zi")
        assert info.value.position == 4
        assert "real" in info.value.expected

    def test_overflowing_real_is_reported_at_its_start(self):
        # inf is not in the grammar, so a literal that rounds to it could not be printed back.
        for parse, text, position in (
            (parse_complex, "0.5+1e309i", 4),
            (parse_map, "extremal:0,-1e400", 11),
            (parse_domain, "disk:0,0,1e999", 9),
        ):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert info.value.position == position
            assert "overflows" in str(info.value)


class TestDomainForms:
    @pytest.mark.parametrize(
        "domain",
        [UnitDisk(), UpperHalfPlane(), Disk(0.5 - 0.25j, 1.75), HalfPlane(1j, -2.5)],
        ids=str,
    )
    def test_round_trip(self, domain):
        assert parse_domain(format_domain(domain)) == domain

    def test_literals(self):
        assert parse_domain("unitdisk") == UnitDisk()
        assert parse_domain("upperhalfplane") == UpperHalfPlane()
        assert parse_domain("disk:0,0,2") == Disk(0j, 2.0)
        assert parse_domain("halfplane:0,1,0") == HalfPlane(1j, 0.0)

    def test_unknown_rejected(self):
        with pytest.raises(ParseError):
            parse_domain("square:0,0,1")


class TestMapForms:
    def test_spec_literals(self):
        assert parse_map("mobius:1,0,0,1") == Mobius(1, 0, 0, 1)
        assert parse_map("extremal:0,0") == Extremal(0.0, 0.0)
        parsed = parse_map("compose(blaschke:0;[0.5+0i],mobius:1,0,0,1)")
        assert parsed == Compose(Blaschke(0.0, (0.5 + 0j,)), Mobius(1, 0, 0, 1))

    def test_empty_zero_list(self):
        assert parse_map("blaschke:1.5;[]") == Blaschke(1.5, ())

    def test_nested_compose(self):
        text = "compose(compose(extremal:1,1,extremal:0,0),mobius:1,0,0,1)"
        parsed = parse_map(text)
        assert isinstance(parsed, Compose) and isinstance(parsed.outer, Compose)

    def test_round_trip_random(self):
        # Blaschke products, Moebius and extremal maps, and compositions of each.
        rng = substream(67, 0)
        for batch in (_disk_maps(rng, 150), _halfplane_maps(rng, 150)):
            for k in range(150):
                m = batch[k]
                assert parse_map(format_map(m)) == m
                assert format_map(parse_map(format_map(m))) == format_map(m)

    def test_complex_coefficients_round_trip(self):
        m = Mobius(1 + 2j, -0.5j, 0.25, 1 - 1j)
        assert parse_map(format_map(m)) == m

    @pytest.mark.parametrize(
        "bad",
        [
            "mobius:1,0,0",
            "blaschke:0;[",
            "blaschke:0;[0.5+0i",
            "extremal:1",
            "compose(mobius:1,0,0,1)",
            "compose(mobius:1,0,0,1,extremal:0,0",
            "squish:1",
            "mobius:1,0,0,1trailing",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_map(bad)

    def test_error_reports_expected_tokens(self):
        with pytest.raises(ParseError) as info:
            parse_map("frobnicate:1")
        assert "mobius:" in info.value.expected
        assert info.value.position == 0


@pytest.mark.parametrize(
    "parse,text,message,position,expected",
    [
        (parse_complex, "1+2", "expected 'i'", 3, ("i",)),
        (parse_complex, "1+", "expected a decimal real", 2, ("real",)),
        (parse_complex, "1e309+1i", "real literal '1e309' overflows the float range", 0, ("real",)),
        (parse_complex, "2i", "unexpected trailing input 'i'", 1, ("end",)),
        (parse_map, "blaschke:0;[0.5", "expected ']'", 15, ("]",)),
        (parse_map, "compose(extremal:0,0;extremal:0,0)", "expected ','", 20, (",",)),
        (parse_domain, "disk:0,0", "expected ','", 8, (",",)),
        (parse_real, "1.5x", "unexpected trailing input 'x'", 3, ("end",)),
        # Decimal means the ASCII digits 0-9: float() and re's \d take other scripts' digits.
        (parse_real, "\u0661\u0665", "expected a decimal real", 0, ("real",)),
        (parse_real, "1\u0665", "unexpected trailing input '\u0665'", 1, ("end",)),
        (parse_complex, "\uff11+\uff12i", "expected a decimal real", 0, ("real",)),
        (parse_complex, "1+\uff12i", "expected a decimal real", 2, ("real",)),
    ],
)
def test_error_contract(parse, text, message, position, expected):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == f"{message} at position {position}"
    assert (info.value.position, info.value.expected) == (position, expected)


def _nested(depth, side):
    """depth compositions of extremal:0.0,0.0 (z -> -1/z), each nested in the outer or the inner slot."""
    if side == "outer":
        return "compose(" * depth + "extremal:0.0,0.0" + ",extremal:0.0,0.0)" * depth
    return "compose(extremal:0.0,0.0," * depth + "extremal:0.0,0.0" + ")" * depth


@pytest.mark.parametrize("side", ["outer", "inner"])
def test_composition_at_the_nesting_cap_works_throughout(side):
    text = _nested(MAX_COMPOSE_DEPTH, side)
    m = parse_map(text)
    # extremal:0.0,0.0 is z -> -1/z: it swaps 0.5+0.5i and -1+i exactly, and it fixes i,
    # where its derivative is -1.  The text holds MAX_COMPOSE_DEPTH + 1 of them.
    odd = MAX_COMPOSE_DEPTH % 2 == 0
    assert apply(m, 0.5 + 0.5j) == (-1 + 1j if odd else 0.5 + 0.5j)
    assert derivative(m, 1j) == (-1 if odd else 1)
    H = UpperHalfPlane()
    assert check_lipschitz_pair(H, H, m, 1j, 2j) > 0.0
    assert format_map(m) == text
    assert repr(m).count("Compose(") == MAX_COMPOSE_DEPTH
    assert hash(m) == hash(parse_map(text))


@pytest.mark.parametrize("side,width", [("outer", len("compose(")), ("inner", len("compose(extremal:0.0,0.0,"))])
def test_composition_past_the_nesting_cap_is_a_parse_error(side, width):
    with pytest.raises(ParseError) as info:
        parse_map(_nested(MAX_COMPOSE_DEPTH + 1, side))
    # Reported at the first compose( past the cap, where only an atom may stand.
    assert info.value.position == width * MAX_COMPOSE_DEPTH
    assert "compose(" not in info.value.expected
