import pickle
import random
from functools import reduce

import pytest

from mgeneral.field import (
    MAX_ORDER,
    Field,
    _digits,
    _from_digits,
    _modulus_table,
    default_modulus,
    field_for_order,
    field_from_q_spec,
    is_irreducible,
    load_modulus_table,
    make_field,
)
from oracles import naive_inv, naive_mul


def test_prime_field_default_modulus():
    f = make_field(2, 1)
    assert f.q == 2 and f.modulus == (0, 1)


def test_gf4_default_modulus_and_examples(f4):
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1
    assert f4.add(2, 3) == 1  # coefficientwise XOR in characteristic 2
    assert f4.mul(2, 2) == 3  # x * x = x + 1
    assert f4.inv(1) == 1


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2


def test_non_prime_p_rejected():
    with pytest.raises(ValueError, match="prime"):
        make_field(4, 1)


def test_bad_modulus_shape_rejected():
    with pytest.raises(ValueError, match="monic"):
        make_field(2, 2, (1, 1))  # wrong degree
    with pytest.raises(ValueError, match="monic"):
        make_field(3, 2, (1, 1, 2))  # not monic


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="supported range"):
        make_field(2, 17)


def test_inv_zero_error(f5):
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ZeroDivisionError):
        f5.pow(0, -1)


def test_enumerate_elements(f3, f4, f5):
    assert list(f3.elements()) == [0, 1, 2]
    assert list(f4.elements()) == [0, 1, 2, 3]
    elems = list(f5.elements())
    assert len(elems) == 5 and elems[0] == 0
    assert all(a < b for a, b in zip(elems, elems[1:]))


@pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4)])
def test_axioms_exhaustive(p, d):
    f = make_field(p, d)
    elems = list(f.elements())
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in elems[:6]:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in elems[1:]:
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,d", [(3, 1), (2, 2), (3, 2), (5, 2), (3, 3)])
def test_sub_is_add_of_neg(p, d):
    f = make_field(p, d)
    for a in f.elements():
        for b in f.elements():
            assert f.sub(a, b) == f.add(a, f.neg(b))
            assert f.add(f.sub(a, b), b) == a


@pytest.mark.parametrize("p,d", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_axioms_random_larger(p, d):
    f = make_field(p, d)
    rng = random.Random(20240 + p * d)
    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)])
def test_mul_matches_naive_oracle(p, d):
    f = make_field(p, d)
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == naive_mul(f, a, b), (a, b)
    for a in range(1, f.q):
        assert f.inv(a) == naive_inv(f, a)


def test_characteristic_identity(f9, f8):
    for f in (f9, f8):
        for a in f.elements():
            acc = 0
            for _ in range(f.p):
                acc = f.add(acc, a)
            assert acc == 0


def test_frobenius(f4, f8, f9):
    for f in (f4, f8, f9):
        for a in f.elements():
            for b in f.elements():
                lhs = f.pow(f.add(a, b), f.p)
                rhs = f.add(f.pow(a, f.p), f.pow(b, f.p))
                assert lhs == rhs


@pytest.mark.parametrize("p,d", [(3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (7, 1)])
def test_sum_of_all_elements_is_zero(p, d):
    f = make_field(p, d)
    assert reduce(f.add, f.elements()) == 0


def test_pow_conventions(f5):
    assert f5.pow(0, 0) == 1
    assert f5.pow(0, 3) == 0
    assert f5.pow(2, -1) == f5.inv(2)
    assert f5.pow(2, 4) == 1  # Fermat


def test_coeff_vector_round_trip(f2, f3, f4, f5, f8, f9):
    # the fields of test_search._GRID; an element's base-p digits are its coefficients
    for f in (f2, f3, f4, f5, make_field(7), f8, f9):
        for a in f.elements():
            assert f.from_coeffs(f.coeff_vector(a)) == a
            digits = _digits(a, f.p, f.d)
            assert tuple(digits) == f.coeff_vector(a) and _from_digits(digits, f.p) == a


def test_deterministic_construction():
    a = make_field(2, 3)
    b = make_field(2, 3)
    assert a is b
    c = Field(2, 3)
    assert c == a and hash(c) == hash(a)


def test_pickle_rebuilds_through_the_cache():
    for field in (Field(3, 2), Field(2, 1), Field(3, 2, (2, 2, 1))):
        clone = pickle.loads(pickle.dumps(field))
        assert clone is make_field(field.p, field.d, field.modulus)
        assert clone == field


def test_default_table_entries_are_irreducible():
    # one row per field of degree >= 2, and each row the monic irreducible of
    # its degree with the least modulus id, found upward from x^d = id p^d
    table = _modulus_table("")  # the shipped table alone
    fields = [(p, d) for p in range(2, 257) if all(p % f for f in range(2, p))
              for d in range(2, 17) if p**d <= MAX_ORDER]
    assert sorted(table) == fields and len(fields) == 93
    for (p, d), coeffs in table.items():
        mod_id = p**d
        while not is_irreducible(_digits(mod_id, p, d + 1), p):
            mod_id += 1
        assert default_modulus(p, d) == coeffs == tuple(_digits(mod_id, p, d + 1)), (p, d)


def test_q_spec_round_trip(f4, f9):
    for f in (f4, f9, make_field(7)):
        assert field_from_q_spec(f.q_spec) == f
    with pytest.raises(ValueError, match="q-spec"):
        field_from_q_spec("nonsense")
    # ids outside [0, p^(d+1)) are refused before any digit is taken; the
    # largest id in range, 3 = x + 1 over F_2, is a field
    assert field_from_q_spec("2^1:3") == make_field(2, 1, (1, 1))
    for spec, message in [("2^1:-1", "modulus id -1 is negative"),
                          ("3^2:-28", "modulus id -28 is negative"),
                          ("2^1:4", "modulus id 4 too large for degree 1 over F_2"),
                          ("3^2:27", "modulus id 27 too large for degree 2 over F_3")]:
        with pytest.raises(ValueError) as err:
            field_from_q_spec(spec)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="monic"):  # 26 = 2 + 2*3 + 2*9 is in range
        field_from_q_spec("3^2:26")


def test_field_for_order_factors_q():
    for q, p, d in [(2, 2, 1), (65521, 65521, 1), (65536, 2, 16), (9, 3, 2), (3125, 5, 5)]:
        f = field_for_order(q)
        assert (f.p, f.d, f.q) == (p, d, q) and f == make_field(p, d)
    for q, message in [(6, "q must be a prime power, got 6"),
                       (65535, "q must be a prime power, got 65535"),
                       (1, "q must be a prime power in [2, 65536], got 1"),
                       (65537, "q must be a prime power in [2, 65536], got 65537")]:
        with pytest.raises(ValueError) as err:
            field_for_order(q)
        assert str(err.value) == message
    with pytest.raises(TypeError):
        field_for_order(4.0)  # not taken as 4


def test_modulus_table_file_round_trip(tmp_path):
    path = tmp_path / "moduli.txt"
    path.write_text("# custom table\n2 2 1 1 1\n3 2 2 2 1\n")
    table = load_modulus_table(path)
    assert table[(2, 2)] == (1, 1, 1)
    assert table[(3, 2)] == (2, 2, 1)
    f = make_field(3, 2, table[(3, 2)])
    assert f.modulus == (2, 2, 1)
    assert is_irreducible((2, 2, 1), 3)


def test_modulus_table_env_override(tmp_path, monkeypatch):
    import mgeneral.field as field_mod

    path = tmp_path / "moduli.txt"
    path.write_text("3 2 2 2 1\n")
    # a field built before the variable is set does not pin the default
    assert make_field(3, 2).modulus != (2, 2, 1)
    monkeypatch.setenv(field_mod.MODULUS_TABLE_ENV, str(path))
    f = make_field(3, 2)
    assert f.modulus == (2, 2, 1)
    monkeypatch.delenv(field_mod.MODULUS_TABLE_ENV)
    assert make_field(3, 2).modulus != (2, 2, 1)
