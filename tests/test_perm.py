import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge.cli import main
from designforge.perm import (
    MAX_FILE_DEGREE,
    Permutation,
    parse_cycle_string,
    read_generator_file,
)
from oracles import write_generator_file


def perms(max_degree=10):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.permutations(list(range(n))).map(Permutation)
    )


def test_identity_and_call():
    p = Permutation([1, 2, 0])
    assert p(0) == 1 and p[2] == 0
    assert Permutation.identity(3).is_identity()
    assert not p.is_identity()


def test_composition_is_left_to_right():
    # (p * q)(i) == q(p(i))
    p = Permutation([1, 0, 2])
    q = Permutation([0, 2, 1])
    assert (p * q).images == (2, 0, 1)


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


def test_cycles_and_str():
    p = parse_cycle_string("(1,2,3)(4,5)", 6)
    assert p.images == (1, 2, 0, 4, 3, 5)
    assert str(p) == "(1,2,3)(4,5)"
    assert p.order() == 6
    assert sorted(map(len, p.cycles(include_fixed=True))) == [1, 2, 3]


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError):
        parse_cycle_string("(1,7)", 6)
    with pytest.raises(ValueError):
        parse_cycle_string("(1,1)", 6)


def test_fixed_points():
    p = parse_cycle_string("(2,3)", 5)
    assert p.fixed_points() == [0, 3, 4]


@given(perms())
def test_inverse_roundtrip(p):
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(list(range(n))), st.permutations(list(range(n))))))
def test_product_inverse_reverses(pair):
    p, q = Permutation(pair[0]), Permutation(pair[1])
    assert (p * q).inverse() == q.inverse() * p.inverse()


@given(perms())
def test_order_annihilates(p):
    assert (p ** p.order()).is_identity()
    if p.order() > 1:
        assert not (p ** (p.order() - 1)).is_identity() or p.order() == 1


@given(perms())
def test_cycle_string_roundtrip(p):
    assert parse_cycle_string(str(p), p.degree) == p


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(list(range(n))), st.permutations(list(range(n))))))
def test_conjugation_matches_definition(pair):
    p, x = Permutation(pair[0]), Permutation(pair[1])
    assert p.conjugate(x) == x.inverse() * p * x


def test_power_negative():
    p = Permutation([1, 2, 0])
    assert p ** -1 == p.inverse()
    assert p ** 0 == Permutation.identity(3)


def test_generator_file_roundtrip(tmp_path):
    path = tmp_path / "g.gens"
    gens = [parse_cycle_string("(1,2,3)", 5), parse_cycle_string("(4,5)", 5)]
    write_generator_file(path, 5, gens, comments=["sample"])
    degree, back = read_generator_file(path)
    assert degree == 5 and back == gens


def test_generator_file_img_format(tmp_path):
    path = tmp_path / "g.gens"
    path.write_text("# comment\ndegree 4\nimg: 1 0 2 3\n(3,4)\n")
    degree, gens = read_generator_file(path)
    assert degree == 4
    assert gens[0].images == (1, 0, 2, 3)
    assert gens[1].images == (0, 1, 3, 2)


def test_generator_file_degree_limit(tmp_path, capsys):
    path = tmp_path / "g.gens"
    path.write_text("degree %d\n(1,2)\n" % MAX_FILE_DEGREE)
    assert read_generator_file(path)[0] == MAX_FILE_DEGREE
    path.write_text("degree %d\n(1,2)\n" % (MAX_FILE_DEGREE + 1))
    with pytest.raises(ValueError, match="exceeds the limit"):
        read_generator_file(path)
    path.write_text("degree 1000000000000\n(1,2)\n")
    assert main(["construct", "--method", "1", "--group", "file:%s" % path]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def same_degree_perms(count, max_degree=8):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.tuples(*[st.permutations(list(range(n))).map(Permutation)] * count)
    )


@given(same_degree_perms(3), st.integers(-7, 7))
def test_kernel_matches_defining_formulas(perms_, k):
    # products, inverses, conjugates and powers skip validation; each must
    # equal the validated permutation its defining formula gives
    p, q, x = perms_
    n = p.degree
    assert p * q == Permutation([q.images[p.images[i]] for i in range(n)])
    inv = [0] * n
    for i in range(n):
        inv[p.images[i]] = i
    assert p.inverse() == Permutation(inv)
    # i^(x^-1 p x): x^-1 sends i to x.images.index(i)
    assert p.conjugate(x) == Permutation([x.images[p.images[x.images.index(i)]] for i in range(n)])
    assert p.conjugate(x, x.inverse()) == p.conjugate(x)
    power = list(range(n))
    step = p.images if k >= 0 else Permutation(inv).images
    for _ in range(abs(k)):
        power = [step[i] for i in power]
    assert p**k == Permutation(power)
    assert Permutation.identity(n) == Permutation(range(n))


@given(same_degree_perms(2))
def test_trusted_and_validated_are_interchangeable(perms_):
    p, q = perms_
    for trusted in (p * q, p.inverse(), p.conjugate(q), p**-2, Permutation.identity(p.degree)):
        validated = Permutation(list(trusted.images))
        assert trusted == validated and validated == trusted
        assert hash(trusted) == hash(validated)
        assert {trusted: "t"}[validated] == "t"
        assert {validated: "v"}[trusted] == "v"
        assert len({trusted, validated}) == 1


@given(st.integers(1, 8).flatmap(lambda n: st.lists(st.integers(-1, n), min_size=n, max_size=n)))
def test_rejects_every_non_bijection(images):
    if sorted(images) == list(range(len(images))):
        assert Permutation(images).images == tuple(images)
    else:
        with pytest.raises(ValueError):
            Permutation(images)


def test_products_reject_degree_mismatch():
    p, q = Permutation([1, 0]), Permutation([1, 2, 0])
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError):
        p.conjugate(q)
