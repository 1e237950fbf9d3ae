"""Ordered multiset partitions: statistics and the insertion bijection."""

import itertools

import pytest

import deltaops.paths as P
from deltaops.osp import (
    check_gamma_image_condition,
    content,
    dinv,
    emit_blocks,
    enumerate_osp,
    gamma,
    gamma_inverse,
    inv,
    maj,
    minimaj,
    minimaj_word,
    parse_blocks,
)
from deltaops.partitions import compositions

FUBINI = [1, 1, 3, 13, 75, 541]


def test_block_notation():
    pi = parse_blocks("15|23|4")
    assert pi == (frozenset({1, 5}), frozenset({2, 3}), frozenset({4}))
    assert emit_blocks(pi) == "15|23|4"
    wide = (frozenset({3, 11}), frozenset({2}))
    assert emit_blocks(wide) == "3,11|2"
    assert parse_blocks("3,11|2") == wide


def test_statistics_examples():
    assert inv(parse_blocks("15|23|4")) == 2
    pi = parse_blocks("13|23|14|234")
    assert minimaj_word(pi) == (3, 1, 2, 3, 4, 1, 2, 3, 4)
    assert minimaj(pi) == 6
    assert content(pi) == (2, 2, 3, 2)
    for single in (parse_blocks("123"), parse_blocks("5")):
        assert inv(single) == dinv(single) == maj(single) == minimaj(single) == 0


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_osp((1, 1, 1), 2)) == 6
    assert sum(1 for _ in enumerate_osp((1,), 1)) == 1
    assert sum(1 for _ in enumerate_osp((2,), 1)) == 0
    for n in range(1, 6):
        total = sum(
            sum(1 for _ in enumerate_osp((1,) * n, k)) for k in range(1, n + 1)
        )
        assert total == FUBINI[n]


def test_gamma_worked_example():
    pi = parse_blocks("13|23|14|234")
    dp = gamma(pi)
    assert dp.a == (0, 1, 1, 2)
    assert dp.north == (frozenset({2, 3}), frozenset({4}),
                        frozenset({2}), frozenset({3}))
    assert dict(dp.east) == {(1, 2): frozenset({1}),
                             (2, 4): frozenset({1, 3}),
                             (3, 4): frozenset({4})}
    assert dp.area() == 6 == minimaj(pi)
    assert dp.wdinv() == 0
    assert gamma_inverse(dp) == pi


def test_gamma_single_block():
    dp = gamma(parse_blocks("134"))
    assert dp.a == (0,) and dp.area() == 0 and dp.wdinv() == 0


def test_gamma_roundtrip_exhaustive():
    for n in range(1, 6):
        for alpha in compositions(n):
            for k in range(1, n + 1):
                for pi in enumerate_osp(alpha, k):
                    d = gamma(pi)
                    assert d.wdinv() == 0
                    assert d.area() == minimaj(pi)
                    assert d.content_key() == alpha
                    assert len(d.north) == k
                    check_gamma_image_condition(d)
                    assert gamma_inverse(d) == pi


def test_gamma_surjective_onto_zero_wdinv():
    for n in range(1, 6):
        for alpha in compositions(n):
            for k in range(0, n):
                images = {gamma(pi) for pi in enumerate_osp(alpha, k + 1)}
                target = {d for d in P.dense_paths(n, k, len(alpha), content=alpha)
                          if d.wdinv() == 0}
                assert images == target


def test_gamma_inverse_requires_zero_wdinv():
    bad = P.DensePath((0, 0), (frozenset({1}), frozenset({2})), (((1, 2), frozenset()),))
    assert bad.wdinv() == 1
    with pytest.raises(ValueError, match="wdinv"):
        gamma_inverse(bad)


def test_equidistribution_small():
    for n in range(1, 6):
        for alpha in compositions(n):
            for k in range(1, n + 1):
                gens = [{}, {}, {}, {}]
                for pi in enumerate_osp(alpha, k):
                    for g, fn in zip(gens, (inv, dinv, maj, minimaj)):
                        v = fn(pi)
                        g[v] = g.get(v, 0) + 1
                assert gens[0] == gens[1] == gens[2] == gens[3]


def test_minimaj_is_minimal_over_rearrangements():
    def maj_word(word):
        return sum(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])

    for n in range(1, 6):
        for alpha in compositions(n):
            for k in range(1, n + 1):
                for pi in enumerate_osp(alpha, k):
                    best = min(
                        maj_word([v for block in choice for v in block])
                        for choice in itertools.product(
                            *[list(itertools.permutations(b)) for b in pi])
                    )
                    assert best == minimaj(pi)
