"""Dyck-path objects, statistics, and the three bijections."""

import itertools

import pytest

import deltaops.paths as P
from deltaops.partitions import compositions


def test_dyck_enumeration():
    assert P.dyck_paths(3) == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2))
    assert len(P.dyck_paths(1)) == 1
    assert len(P.dyck_paths(8)) == 1430


def test_labeled_path_statistics():
    # area 2, dinv 4, d = (0,2,1,1,0), contractible valleys {4,5}
    a, l = (0, 1, 1, 0, 0), (3, 6, 2, 1, 2)
    assert P.area(a) == 2
    assert P.d_vector(a, l) == (0, 2, 1, 1, 0)
    assert P.dinv(a, l) == 4
    assert P.val_rows(a, l) == (4, 5)
    assert P.rise_rows(a) == (2,)
    assert P.dinv((0,)) == 0 and P.area((0,)) == 0


def test_parking_function_count():
    for n in range(1, 6):
        cnt = sum(1 for a, l in P.labeled_paths(n) if len(set(l)) == n)
        assert cnt == (n + 1) ** (n - 1)


def test_column_areas():
    assert P.col_areas((0, 1, 2, 2, 3, 4)) == (2, 4, 3, 2, 1, 0)
    for n in range(1, 7):
        for a in P.dyck_paths(n):
            assert sum(P.col_areas(a)) == sum(a)


def test_serialization():
    text = P.serialize((0, 1, 1), (3, 1, 2), (2,))
    assert text == "a=[0,1,1];l=[3,1,2];dec=[2]"
    rec = P.deserialize(text)
    assert rec == {"a": (0, 1, 1), "l": (3, 1, 2), "dec": (2,)}


def test_stack_path_example():
    sp = P.StackPath((1, 2, 6), (0, 1, 1, 0, 0, 1), (3, 4, 6, 1, 4, 5))
    assert sp.h_vector() == (0, 1, 2, 2, 3, 4)
    assert sp.area() == 3
    assert sp.wdinv() == 1
    assert sp.hdinv() == 0
    assert sp.reading_word() == (5, 4, 1, 6, 4, 3)
    assert sum(1 for _ in P.stack_paths(6, 2, 6)) > 0
    assert any(spx == sp for spx in P.stack_paths(6, 2, 6))


def test_phi_worked_example():
    a, l, F = (0, 1, 2, 2, 3, 4), (3, 4, 6, 1, 4, 5), (2, 3, 4)
    assert P.fall_cols(a) == (2, 3, 4, 5)
    img = P.phi(a, l, F)
    assert img == P.StackPath((1, 2, 6), (0, 1, 1, 0, 0, 1), (3, 4, 6, 1, 4, 5))
    assert P.phi_inverse(img) == (a, l, F)
    cols = P.col_areas(a)
    assert img.area() == sum(cols) - sum(cols[j - 1] for j in F)
    assert img.hdinv() == P.dinv(a, l)
    assert img.h_vector() == a


def test_psi_and_theta_worked_example():
    sp = P.StackPath((1, 2, 6), (0, 1, 1, 0, 0, 1), (3, 4, 6, 1, 4, 5))
    a, l, V = P.psi_inverse(sp)
    assert V == (3, 4, 5)
    assert P.psi(a, l, V) == sp
    dp = P.theta(sp, validate=True)
    assert dp.a == (0, 1, 1)
    assert dp.north == (frozenset({3}), frozenset({4, 6}), frozenset({5}))
    assert dict(dp.east) == {(1, 2): frozenset({1, 4}), (2, 3): frozenset()}
    assert dp.area() == 3 and dp.wdinv() == 1
    assert P.theta_inverse(dp) == sp


def test_bad_decorations_raise():
    a, l = (0, 1, 1, 0, 0), (3, 6, 2, 1, 2)
    with pytest.raises(ValueError):
        P.phi(a, l, (1,))  # column 1 is not a double fall here
    with pytest.raises(ValueError):
        P.psi(a, l, (2,))  # row 2 is a rise, not a contractible valley


def test_bijections_exhaustive_small():
    for n in range(1, 5):
        for a, labels in P.labeled_paths(n, n):
            falls = P.fall_cols(a)
            cols = P.col_areas(a)
            dv = P.dinv(a, labels)
            for size in range(len(falls) + 1):
                for F in itertools.combinations(falls, size):
                    sp = P.phi(a, labels, F)
                    assert P.phi_inverse(sp) == (a, labels, F)
                    assert sp.area() == sum(cols) - sum(cols[j - 1] for j in F)
                    assert sp.hdinv() == dv
            dvec = P.d_vector(a, labels)
            vals = P.val_rows(a, labels)
            for size in range(len(vals) + 1):
                for V in itertools.combinations(vals, size):
                    sp = P.psi(a, labels, V)
                    assert P.psi_inverse(sp) == (a, labels, V)
                    assert sp.area() == P.area(a)
                    dminus = sum(dvec) - sum(dvec[i - 1] + 1 for i in V)
                    assert dminus >= 0
                    assert sp.wdinv() == dminus


def test_theta_bijective_small():
    for n in range(1, 6):
        for k in range(n):
            images = set()
            for sp in P.stack_paths(n, k, n):
                dp = P.theta(sp, validate=True)
                assert P.theta_inverse(dp) == sp
                assert dp.area() == sp.area() and dp.wdinv() == sp.wdinv()
                images.add(dp)
            direct = set(P.dense_paths(n, k, n))
            assert images == direct


def test_dense_paths_by_content_match_the_filtered_enumeration():
    for n in range(1, 6):
        for k in range(n):
            for N in range(1, n + 1):
                by_key: dict = {}
                for d in P.dense_paths(n, k, N):
                    by_key.setdefault(d.content_key(), []).append(d)
                # Every content met, weak ones included, and every composition.
                alphas = set(by_key) | {a for a in compositions(n) if len(a) <= N}
                for alpha in alphas:
                    got = list(P.dense_paths(n, k, N, content=alpha))
                    assert got == by_key.get(alpha, []), (n, k, N, alpha)


def test_dense_paths_by_content_yield_nothing_for_foreign_contents():
    assert list(P.dense_paths(3, 1, 3, content=(1, 1))) == []       # sum 2, not 3
    assert list(P.dense_paths(3, 1, 3, content=(1, 2, 1))) == []    # sum 4, not 3
    assert list(P.dense_paths(3, 1, 2, content=(1, 1, 1))) == []    # longer than N
    assert list(P.dense_paths(3, 1, 3, content=(2, 1, 0))) == []    # no content_key
    assert list(P.dense_paths(3, 1, 3, content=(2, 1))) != []


def test_dense_shape_matches_a_direct_recomputation():
    for m in range(1, 7):
        for a in P.dyck_paths(m):
            xs = tuple(r - a[r] for r in range(m))
            squares = []
            for r in range(m):
                squares.append((xs[r], r + 1, True))
                top = xs[r + 1] if r + 1 < m else m
                for x in range(xs[r] + 1, min(top, r) + 1):
                    squares.append((x, r + 1, False))
            slots = [(x, row) for x, row, north in squares if not north]
            shape = P.dense_shape(a)
            assert shape.xs == xs == P.x_positions(a)
            assert shape.squares == tuple(squares)
            assert shape.slots == tuple(slots)
            assert shape.sorted_slots == tuple(sorted(slots))
            assert all(row - 1 - x >= 0 for x, row in slots)


def test_dense_validity():
    dp = P.DensePath((0, 1), (frozenset({1}), frozenset({2})), (((1, 2), frozenset()),))
    dp.check(2)
    bad = P.DensePath((0, 1), (frozenset({2}), frozenset({1})), (((1, 2), frozenset()),))
    with pytest.raises(ValueError):
        bad.check(2)
    empty_north = P.DensePath((0, 1), (frozenset(), frozenset({1})), (((1, 2), frozenset({2}),),))
    with pytest.raises(ValueError):
        empty_north.check(2)


def test_partial_paths_figure():
    a, l = (0, 1, 1, 0, 0, 1, 2, 1), (2, 4, 0, 3, 0, 1, 5, 6)
    assert P.area(a) == 6
    assert P.touch(a, l) == 2
    # zero-labeled dinv counts one extra pair over the primed variant here
    assert P.dinv_prime_partial(a, l) == 6
    assert P.dinv_partial(a, l) == 7


def test_partial_path_enumeration():
    # no unlabeled valleys means ordinary labeled paths
    assert (sum(1 for _ in P.partial_paths(3, 0, 3))
            == sum(1 for _ in P.labeled_paths(3, 3)))
    for a, l in P.partial_paths(3, 2, 3):
        assert l[0] != 0
        assert sum(1 for v in l if v == 0) == 2
        for i in range(1, len(a)):
            if l[i] == 0:
                assert a[i] <= a[i - 1]
