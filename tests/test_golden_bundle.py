"""Golden SHA-256 of every certificate entry for k = 1..8.

Each digest hashes the ``exact_str`` of every entry of ``build_bundle(k)``,
one per line, in this order: ``pi``, ``c``, ``lam.bar`` (row by row),
``lam.star_row``, ``mu.bar``, ``mu.star_row``, the slack core (the top-left
n x n block of L), L, S and ``u_coeffs``.  L is rebuilt in full
from the upper-triangle rows that ``slack.lap`` generates from the gluing
tree, and S from L and ``slack.border``.  The matrices are densified first,
so every zero entry is hashed too.  The k <= 7 digests were recorded with the original Fraction-pair
implementation of ``RadicalScalar``, when the core was stored as a separate
matrix, and the k = 8 digest with dense list-of-lists storage of the full L
and S; no change to the arithmetic or the storage may move a single entry.
"""

import hashlib

import pytest

from silverprox.certificate import build_bundle, build_slack
from sparse_rows import bordered, dense, rows, symmetric

GOLDEN = {
    1: "2a067c042978d8f09e96ee1462809d532f4db51e794a5d403f5a6836edb86737",
    2: "4e29814eddec326e8950fdd686d73aeb5751b172f2a7097f53abb3434aacbe23",
    3: "c8a8a64f14b59187e141837a37dd9eda531f1da7efab2598e300b8312d218f78",
    4: "fc4abedd6f0422600e6f252bb2494654ba38dc8dc15fcbad5e6f94404e0d1ba4",
    5: "968595514da77ae352f9154079383cae6089cccf63ced3e354b51e0b76041934",
    6: "ffb66a531117809fdf706cbc931063150b5286c640de07d0d05a408d849d1e99",
    7: "9c97fef2e017673fad1cb2735ac7d5ee8c531711d2268decab177cde90ce9a59",
    8: "21ef2ff8701630ee6fe6e8ac946b55a1379a7abff7b86549e0ec9130ae5318f1",
}


def bundle_entries(bundle):
    yield from bundle.pi
    yield from bundle.slack.c
    for mult in (bundle.lam, bundle.mu):
        for row in dense(rows(mult.bar)):
            yield from row
        yield from mult.star_row
    lap = dense(symmetric(bundle.slack.lap))
    for mat in ([row[:-1] for row in lap[:-1]], lap, dense(bordered(bundle.slack))):
        for row in mat:
            yield from row
    yield from bundle.u_coeffs


@pytest.mark.parametrize("k", sorted(GOLDEN))
def test_bundle_entries_match_golden_digest(k):
    digest = hashlib.sha256()
    for value in bundle_entries(build_bundle(k)):
        digest.update(value.exact_str().encode() + b"\n")
    assert digest.hexdigest() == GOLDEN[k]


def test_higher_orders_leave_the_shared_rows_intact():
    # Orders share rows, so gluing orders 9 and 10 must not edit one of 1..8.
    build_bundle.cache_clear()
    build_bundle(10)
    for k in sorted(GOLDEN):
        test_bundle_entries_match_golden_digest(k)


def test_slack_rows_pinned_for_perfbench():
    # perfbench's exactnum_micro draws its operands from these values, in this
    # order; the digest was recorded when L's upper triangle was stored.
    values = [v for row in build_slack(8).lap for v in row if v]
    assert len(values) == 9216
    digest = hashlib.sha256()
    for value in values:
        digest.update(value.exact_str().encode() + b"\n")
    assert digest.hexdigest() == (
        "d792fd03f5d974d43cc6648f299bbdeb5e824f0f690cd2ace8dae25b271260f8")
