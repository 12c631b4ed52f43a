"""The one memo of ``series``: every function memoised on it answers any
sequence of orders exactly as its undecorated self, and the repeats the
registry makes are hits."""

import random
import sys
import threading
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from overrank import products, series
from overrank.combinat import rank_class_sum
from overrank.errors import PoleHit
from overrank.lambert import g_series, lambert_sum
from overrank.products import Product, poch
from overrank.rankdiff import _class_pair_difference
from overrank.registry import verify


@contextmanager
def empty_memo(limit=None):
    """An empty shared memo, at the bound limit if given; the shared one is
    restored after."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_memo", {})
        mp.setattr(series, "_memo_counts", Counter())
        if limit is not None:
            mp.setattr(series, "_EXPAND_LIMIT", limit)
        yield


def _stored():
    return sum(s.order - s.min_exp for s in series._memo.values())


# each draw is (memoised function, its arguments but the order, its keywords);
# a list argument is keyed as a tuple, so both forms are drawn
DENOMS = st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(-12, 12), st.integers(1, 4)),
                  max_size=2)


@st.composite
def lambert_calls(draw):
    denoms = draw(DENOMS)
    primed = draw(st.booleans())
    if primed:  # a primed sum has the denominator 1 - q^(step n)
        denoms = [(1, 0, draw(st.integers(1, 4)))] + denoms
    if draw(st.booleans()):
        denoms = tuple(denoms)
    # a tuple of linear coefficients, as a rank-class sum passes, is a tuple key
    lin = draw(st.one_of(st.integers(-8, 8), st.tuples(st.integers(-8, 8), st.integers(-8, 8))))
    args = (draw(st.integers(1, 3)), lin, draw(st.sampled_from((1, -1))), denoms)
    return lambert_sum, args, {"primed": True} if primed else {}


@st.composite
def g_calls(draw):
    base = draw(st.integers(2, 7))
    # e < 0 gives a Laurent series; e a multiple of base is a pole
    e = draw(st.integers(-3 * base, 3 * base).filter(lambda e: e % base))
    return g_series, (draw(st.sampled_from((1, -1))), e, base), {}


@st.composite
def class_sum_calls(draw):
    m = draw(st.integers(1, 7))
    # not memoised itself: it reaches the memo through lambert_sum's tuple-lin key
    return rank_class_sum, (draw(st.integers(0, m - 1)), m), {}


@st.composite
def class_pair_calls(draw):
    ell = draw(st.integers(1, 5))
    # s = t is the zero series
    return _class_pair_difference, (draw(st.integers(0, ell - 1)), draw(st.integers(0, ell - 1)),
                                    ell), {}


@st.composite
def expansion_calls(draw):
    prod = Product()
    for sign, r, step, mult in draw(st.lists(st.tuples(
            st.sampled_from((1, -1)), st.integers(1, 6), st.integers(1, 6),
            st.integers(-3, 3).filter(bool)), min_size=1, max_size=3)):
        prod = prod * poch(sign, r, step, mult)
    return products._expand_factors, (prod.factors,), {}


ORDERS = st.lists(st.integers(1, 90), min_size=1, max_size=6)


def _check(calls, orders, limit):
    """Each call at each order, in turn, against the undecorated function,
    from an empty memo at the bound limit.  A function not memoised itself is
    checked against its call on an empty memo of its own."""
    with empty_memo(limit):
        for fn, args, kwargs in calls:
            for order in orders:
                try:
                    if hasattr(fn, "__wrapped__"):
                        want = fn.__wrapped__(*args, order, **kwargs)
                    else:
                        with empty_memo():
                            want = fn(*args, order, **kwargs)
                except PoleHit:
                    with pytest.raises(PoleHit):
                        fn(*args, order, **kwargs)
                    continue
                got = fn(*args, order, **kwargs)
                assert (got.min_exp, got.nums, got.den, got.order) == \
                       (want.min_exp, want.nums, want.den, want.order), (fn, args, order)
                assert series._memo_counts["stored"] == _stored() <= series._EXPAND_LIMIT


@pytest.mark.parametrize("calls", [lambert_calls(), g_calls(), class_sum_calls(),
                                   class_pair_calls(), expansion_calls()],
                         ids=["lambert_sum", "g_series", "rank_class_sum",
                              "_class_pair_difference", "_expand_factors"])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_orders_give_the_undecorated_result(calls, data):
    drawn = data.draw(st.lists(calls, min_size=1, max_size=3))
    orders = data.draw(ORDERS)
    # a few hundred coefficients: entries are evicted on the way
    _check(drawn, orders, data.draw(st.sampled_from((None, 300))))


def test_a_deeper_call_replaces_its_entry_and_a_shallower_one_is_a_hit():
    with empty_memo():
        lambert_sum(1, 2, -1, [(-1, 0, 1)], 40)
        deep = lambert_sum(1, 2, -1, ((-1, 0, 1),), 60)  # a tuple is the same key
        assert lambert_sum(1, 2, -1, [(-1, 0, 1)], 30) == deep.truncate(30)
        assert lambert_sum.cache_info() == (1, 2, series._EXPAND_LIMIT, 60)
        assert list(series._memo.values()) == [deep]
        lambert_sum.cache_clear()
        assert lambert_sum.cache_info() == (0, 0, series._EXPAND_LIMIT, 0) and not series._memo
        assert series._memo_counts["stored"] == 0


def test_the_keywords_are_part_of_the_key():
    # the primed sum omits the pole that the full sum hits at n = 0
    with empty_memo():
        lambert_sum(1, 2, -1, [(1, 0, 3)], 20, primed=True)
        with pytest.raises(PoleHit):
            lambert_sum(1, 2, -1, [(1, 0, 3)], 20)


def test_the_order_by_keyword_is_the_order_by_position():
    with empty_memo():
        deep = lambert_sum(1, 0, 1, (), order=40)
        assert lambert_sum(1, 0, 1, (), order=40) == deep
        assert lambert_sum(1, 0, 1, [], 30) == deep.truncate(30)
        assert lambert_sum(1, 0, 1, (), order=20) == deep.truncate(20)
        assert lambert_sum(1, 0, 1, (), 60) == lambert_sum.__wrapped__(1, 0, 1, (), 60)
        assert lambert_sum(1, 0, 1, (), order=50) == lambert_sum.__wrapped__(1, 0, 1, (), 50)
        assert lambert_sum.cache_info() == (4, 2, series._EXPAND_LIMIT, 60)
        assert len(series._memo) == 1


def test_threads_keep_the_store_consistent():
    """Threads calling at drawn orders, the bound low enough to evict on the
    way: every result is the undecorated one, and no update of the stored
    total is lost."""
    calls = [(1, 1 + s, -1, [(-1, 0, 1), (1, 0, 5)]) for s in range(5)]  # rank-class sums
    orders = (20, 40, 60, 80)
    want = {(i, n): lambert_sum.__wrapped__(*args, n, primed=True)
            for i, args in enumerate(calls) for n in orders}
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(200):
            i, n = rng.randrange(len(calls)), rng.choice(orders)
            if lambert_sum(*calls[i], n, primed=True) != want[i, n]:
                wrong.append((i, n))

    interval = sys.getswitchinterval()
    with empty_memo(300):
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert series._memo_counts["stored"] == _stored() <= series._EXPAND_LIMIT
        info = lambert_sum.cache_info()
        assert info.hits + info.misses == 6 * 200


def test_p3_repeats_p1_as_hits():
    # each p3 comparison is p1's at s = +1: the same triple-product sum
    with empty_memo():
        assert verify("p1@ell=7", 200).ok
        info = lambert_sum.cache_info()
        assert verify("p3@ell=7", 200).ok
        assert lambert_sum.cache_info().misses == info.misses
        assert lambert_sum.cache_info().hits > info.hits


def test_final_form_builds_each_sum_once():
    # Sum(1, 0) in y = q^5, sigma_ab(1, 0, 5), is the Sum(z, 1, q) of g(1) and
    # multiplies every term of the bracket; each is one build
    with empty_memo():
        assert verify("final@ell=5,m=1", 150).ok
        keys = [key for key in series._memo if key[0] is lambert_sum]
        assert (lambert_sum, 5, 5, -1, ((1, 1, 5),)) in keys
        assert lambert_sum.cache_info().misses == len(keys)
