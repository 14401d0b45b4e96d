import random

import pytest

from bfc.tables import (
    PartialTruthTable,
    Restriction,
    TruthTable,
    compose,
    evaluate,
    format_table,
    named_family,
    parity_partition,
    parse_restriction,
    parse_table,
    restrict,
)


def test_bit_convention_x1_is_lsb():
    # f(x1, x2) = x1: table bit x is f at input index x, x1 = bit 0
    f = TruthTable(2, 0b1010)
    assert [f.value(x) for x in range(4)] == [0, 1, 0, 1]


def test_or2_formats_to_the_documented_convention():
    assert format_table(named_family("OR", 2)) == "2:E"


def test_format_digit_count_is_exact():
    assert format_table(TruthTable(1, 0)) == "1:0"
    assert format_table(TruthTable(2, 0)) == "2:0"
    assert format_table(TruthTable(3, 1)) == "3:01"
    assert format_table(TruthTable(4, 1)) == "4:0001"


def test_parse_format_roundtrip():
    for n in range(5):
        for t in range(0, 1 << (1 << n), max(1, (1 << (1 << n)) // 37)):
            f = TruthTable(n, t)
            assert parse_table(format_table(f)) == f


def test_parse_rejects_wrong_digit_count():
    with pytest.raises(ValueError):
        parse_table("2:0E")
    with pytest.raises(ValueError):
        parse_table("4:FFF")


def test_parse_rejects_junk():
    # int() alone would accept a sign, spaces, underscores and non-ASCII digits
    for bad in ("", "2", ":E", "2:", "2:G", "-1:0", "x:0", "+2:E", "2 :E", "2:\u0661",
                "4:+FFF", "4: FFF", "4:F_FF", "4:-000", "\u0664:FFFF"):
        with pytest.raises(ValueError):
            parse_table(bad)


def test_value_range_checked():
    f = TruthTable(2, 0b1110)
    with pytest.raises(ValueError):
        f.value(4)
    with pytest.raises(ValueError):
        TruthTable(1, 4)


def test_evaluate_matches_value():
    f = named_family("EXACT1", 3)
    for x in range(8):
        assert evaluate(f, x) == (1 if bin(x).count("1") == 1 else 0)


def test_complement():
    f = named_family("OR", 3)
    g = f.complement()
    for x in range(8):
        assert g.value(x) == 1 - f.value(x)


def test_restriction_renumbers_survivors_ascending():
    # f(x1,x2,x3) = x2 restricted with x2=1 gives the constant 1 on (x1,x3)
    f = TruthTable(3, 0b11001100)
    g = restrict(f, Restriction.of({2: 1}))
    assert g.arity == 2
    assert g.table == 0b1111
    # restricting x1=0 of x1 XOR x3 leaves x3 as the new x2... renumbered to x1? no:
    # survivors (x2, x3) become (x1, x2) in ascending order
    h = TruthTable(3, 0b10010110)  # parity of 3 bits; restrict x1=0 -> parity of 2
    p = restrict(h, Restriction.of({1: 0}))
    assert p == named_family("PARITY", 2)


def test_restriction_multiple_fixes():
    f = named_family("AND", 4)
    g = restrict(f, Restriction.of({1: 1, 3: 1}))
    assert g == named_family("AND", 2)
    assert restrict(f, Restriction.of({2: 0})).table == 0


@pytest.mark.parametrize("n", [3, 9, 10, 11])
def test_restriction_matches_definition(n):
    rng = random.Random(n)
    f = TruthTable(n, rng.getrandbits(1 << n))
    for var in (1, (n + 1) // 2, n):
        for val in (0, 1):
            g = restrict(f, Restriction.of({var: val}))
            low = (1 << (var - 1)) - 1
            want = [
                f.value(((y & ~low) << 1) | (val << (var - 1)) | (y & low))
                for y in range(1 << (n - 1))
            ]
            assert [g.value(y) for y in range(g.size)] == want, (var, val)


def test_restriction_validation():
    with pytest.raises(ValueError):
        Restriction.of({0: 1})
    with pytest.raises(ValueError):
        Restriction.of({1: 2})
    f = named_family("OR", 2)
    with pytest.raises(ValueError):
        restrict(f, Restriction.of({3: 0}))


def test_parse_restriction():
    r = parse_restriction("1=0,3=1")
    assert r.fixed == ((1, 0), (3, 1))
    with pytest.raises(ValueError):
        parse_restriction("1=0,1=1")
    with pytest.raises(ValueError):
        parse_restriction("a=1")
    # only ASCII decimal digits: no sign, spaces, underscores or other scripts
    for text in ("+1=1", " 1 = 0", "1=+1", "\u0661=1", "1_0=1"):
        with pytest.raises(ValueError):
            parse_restriction(text)


def test_compose_block_order():
    # OR of 2 ANDs of 2: block i sits at variables (i-1)*m+1 .. i*m
    f = compose(named_family("OR", 2), named_family("AND", 2))
    for x in range(16):
        blocks = [(x & 3), (x >> 2) & 3]
        want = int(any(b == 3 for b in blocks))
        assert f.value(x) == want


def test_compose_identity_block():
    ident = TruthTable(1, 0b10)  # f(x1) = x1
    f = named_family("PARITY", 3)
    assert compose(f, ident) == f


def test_and_or_family_is_composition():
    assert named_family("AND-OR", (2, 3)) == compose(
        named_family("AND", 2), named_family("OR", 3)
    )


def test_parity_partition_and2():
    # inputs agreeing with parity(x): for AND_2 only x=11 disagrees... check
    v0, v1 = parity_partition(named_family("AND", 2))
    assert v0 == (0b00,)
    assert v1 == (0b01, 0b10, 0b11)


def test_parity_partition_parity_is_everything():
    v0, v1 = parity_partition(named_family("PARITY", 3))
    assert v0 == tuple(range(8))
    assert v1 == ()


def test_named_family_values():
    orf = named_family("OR", 3)
    andf = named_family("AND", 3)
    xof = named_family("XOR-OR", 3)
    for x in range(8):
        assert orf.value(x) == (x != 0)
        assert andf.value(x) == (x == 7)
        assert xof.value(x) == ((x & 1) ^ ((x >> 1) != 0))


def test_named_family_rejects_unknown():
    with pytest.raises(ValueError):
        named_family("MAJORITY", 3)
    with pytest.raises(ValueError):
        named_family("AND-OR", 4)


def test_partial_table_domain_contract():
    p = PartialTruthTable(2, 0b0010, 0b0011)
    assert p.arity == 2
    with pytest.raises(ValueError):
        PartialTruthTable(2, 0b0100, 0b0011)  # value set outside the domain
