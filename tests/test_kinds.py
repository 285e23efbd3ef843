"""Each kind is defined once, by its weights (a, b), and every layer reads them."""
import io
from contextlib import redirect_stdout
from math import factorial

import pytest

from bdstirling import cli, config
from bdstirling.config import EnumerationCaps, _weights
from bdstirling.errors import BadIndex, SizeOverflow
from bdstirling.geometry import census, free_point_count, torus_census
from bdstirling.groups import enumerate_group, group_order
from bdstirling.identities import descent_histogram, flag_histogram
from bdstirling.partitions import stirling_row
from bdstirling.polynomials import falling_factorial

from .oracles import falling_factorial_value, value_of

KINDS = [("A", None), ("B", None), ("D", None), ("G", 1), ("G", 3), ("G", 4)]


def test_weight_table():
    assert _weights("A") == (1, 0)
    assert _weights("B") == _weights("D") == (2, 1)
    assert _weights("G", 5) == (5, 1)
    for m in (None, 0, -1):
        with pytest.raises(BadIndex):
            _weights("G", m)
    with pytest.raises(ValueError):
        _weights("C")


@pytest.mark.parametrize("call", [
    lambda: _weights("G", 2.5),
    lambda: _weights("G", 2.0),
    lambda: group_order("G", 3, 2.5),
    lambda: descent_histogram("G", 2, 2.5),
    lambda: stirling_row("G", 3, 2.5),
    lambda: falling_factorial("G", 2, m=2.5),
    # D's n is read the same way
    lambda: falling_factorial("D", 2, n=2.5),
])
def test_colors_m_refuses_a_float(call):
    with pytest.raises(TypeError):
        call()


def test_colors_m_reads_a_bool_as_an_int():
    assert _weights("G", True) == (1, 1)
    assert type(_weights("G", True)[0]) is int
    assert group_order("G", 3, True) == group_order("G", 3, 1) == 6
    assert descent_histogram("G", 2, True) == descent_histogram("G", 2, 1)


@pytest.mark.parametrize("n", range(11))
def test_type_b_is_two_colors(n):
    assert stirling_row("B", n) == stirling_row("G", n, 2)
    assert falling_factorial("B", n) == falling_factorial("G", n, m=2)
    assert group_order("B", n) == group_order("G", n, 2)


def test_type_b_and_two_colors_meet_one_cap():
    for n in range(9):
        assert descent_histogram("G", n, 2) == descent_histogram("B", n)
    enumerate_group("G", 8, 2)  # the cap is checked on the call, nothing is walked
    for kind in ("B", "G"):
        for walk in (enumerate_group, descent_histogram):
            with pytest.raises(SizeOverflow, match=f"exceeds cap {group_order('B', 8)}$"):
                walk(kind, 9, 2)
    rows = []
    for kind in (["B"], ["G", "--m", "2"]):  # kind B takes no --m
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["tables", "eulerian", "--kind", *kind, "--n", "8", "--format", "csv"])
        assert code == 0
        rows.append(out.getvalue().splitlines()[-1])
    assert rows[0] == rows[1]


@pytest.mark.parametrize("kind,m", KINDS)
def test_group_cap_refuses_past_its_bit_length_before_the_order(kind, m, monkeypatch):
    # every order is at least n! >= 2**(n-1), so n > L passes a cap of L bits
    for bits in (0, 1, 5, 24):
        caps = EnumerationCaps(signed_group=2**bits - 1)  # a cap of that bit length
        # n = L is checked by its order, n = L + 1 by the bound alone
        if (order := group_order(kind, bits, m)) > caps.signed_group:
            with pytest.raises(SizeOverflow, match=f"^group of order {order} exceeds"):
                descent_histogram(kind, bits, m, caps=caps)
        else:
            assert sum(descent_histogram(kind, bits, m, caps=caps)) == order
        assert group_order(kind, bits + 1, m) > caps.signed_group
        with pytest.raises(SizeOverflow, match=rf"^group of order at least 2\*\*{bits} "
                                               rf"exceeds cap {caps.signed_group}$"):
            descent_histogram(kind, bits + 1, m, caps=caps)
    monkeypatch.setattr(config, "group_order", None)  # never reached
    for n in (25, 10**20):
        with pytest.raises(SizeOverflow, match=rf"^group of order at least 2\*\*{n - 1} "
                                               r"exceeds cap 10321920$"):
            descent_histogram(kind, n, m)


def test_group_cap_checks_the_kind_and_m_before_the_size():
    with pytest.raises(BadIndex, match="kind G needs m >= 1"):
        descent_histogram("G", 10**20, 0)
    with pytest.raises(TypeError):
        descent_histogram("G", 10**20, 2.5)
    with pytest.raises(ValueError, match="unknown kind 'C'"):
        config._check_group_cap("C", 10**20, None, EnumerationCaps())


@pytest.mark.parametrize("call", [
    lambda n: census("B", n, 1), lambda n: census("D", n, 0), lambda n: torus_census(n, 3, 2),
])
def test_census_cap_refuses_past_its_bit_length_before_the_power(call):
    # the cap 10**8 has 27 bits; a one-value axis counts as two values
    with pytest.raises(SizeOverflow, match=r"\*\*27 points exceeds cap 100000000"):
        call(27)
    with pytest.raises(SizeOverflow, match=rf"\*\*{10**20} points exceeds cap 100000000"):
        call(10**20)


@pytest.mark.parametrize("kind,m", KINDS)
def test_group_order_is_a_to_the_n_times_n_factorial(kind, m):
    a, _ = _weights(kind, m)
    for n in range(8):
        halved = 2 if kind == "D" and n >= 1 else 1
        assert group_order(kind, n, m) * halved == a**n * factorial(n)


@pytest.mark.parametrize("kind,m", KINDS)
def test_falling_factorial_roots_step_by_a_from_b(kind, m):
    a, b = _weights(kind, m)
    for k in range(7):
        n = k + 1  # below the top, where type D steps like type B
        poly = falling_factorial(kind, k, n=n, m=m)
        assert len(poly) == k + 1  # degree k
        assert all(value_of(poly, b + a * i) == 0 for i in range(k))
        assert value_of(poly, b + a * k) != 0


def test_classical_name_is_kind_a():
    for k in range(7):
        assert falling_factorial("classical", k) == falling_factorial("A", k)


@pytest.mark.parametrize(
    "kind,m,accepted,rejected",
    [
        ("B", None, (1, 3, 7, 9), (2, 4, 6, 8)),
        ("D", None, (1, 5, 7), (2, 6)),
        ("G", 3, (1, 4, 16), (2, 3, 5, 17)),
        ("G", 4, (1, 5, 9), (2, 3, 4, 6, 7)),
    ],
)
def test_free_points_need_x_congruent_to_b_mod_a(kind, m, accepted, rejected):
    for x in accepted:
        assert free_point_count(kind, 2, x, m=m) == falling_factorial_value(
            x, kind, 2, n=2, m=m
        )
    for x in rejected:
        with pytest.raises(BadIndex):
            free_point_count(kind, 2, x, m=m)


def test_free_points_reject_kinds_without_a_census():
    with pytest.raises(ValueError):
        free_point_count("A", 2, 3)


def test_each_overflow_names_its_cap():
    caps = EnumerationCaps(signed_group=10, census_points=30)
    over = {
        "cap 10": [
            lambda: descent_histogram("A", 4, caps=caps),
            lambda: descent_histogram("B", 3, caps=caps),
            lambda: descent_histogram("D", 3, caps=caps),
            lambda: flag_histogram(3, caps=caps),
            lambda: enumerate_group("B", 3, caps=caps),
            lambda: enumerate_group("D", 3, caps=caps),
            lambda: descent_histogram("G", 2, 4, caps=caps),
            lambda: enumerate_group("G", 2, 4, caps=caps),
        ],
        "cap 30": [
            lambda: census("B", 2, 3, caps=caps),
            lambda: census("D", 2, 3, caps=caps),
            lambda: torus_census(2, 3, 5, caps=caps),
        ],
    }
    for cap, calls in over.items():
        for call in calls:
            with pytest.raises(SizeOverflow, match=f"exceeds {cap}$"):
                call()
    # colored groups answer to the same cap, and a group of its order is walked
    assert sum(descent_histogram("G", 1, 10, caps=caps)) == 10
    assert len(list(enumerate_group("G", 1, 10, caps=caps))) == 10


@pytest.mark.parametrize("kind", ["A", "C", "Bstar", "classical"])
def test_enumerate_group_rejects_kinds_it_cannot_walk(kind):
    with pytest.raises(ValueError, match="unknown group kind"):
        enumerate_group(kind, 2)
