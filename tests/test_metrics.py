"""Arrival metrics and ranked-list CMC/mAP checks against hand computations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgereid.errors import DataError, InputError
from edgereid.metrics import (cmc_map, mean_precise_rank, mtn, precise_rank_k,
                              summarize)
from edgereid.simulate import (PairColumns, PairRecord, QueryColumns, QueryRecord,
                               RankedQuery, RunReport)


def columns(kind, records):
    """kind's int64 columns holding the records' fields of the same names."""
    return kind(*(np.array([getattr(r, f) for r in records], dtype=np.int64)
                  for f in kind._fields))


def make_report(tns=(), positions=(), strategy="visual"):
    pairs = [PairRecord(query_index=i, target_index=i + 100, device=0,
                        rank=tn, budget=1, tn=tn)
             for i, tn in enumerate(tns)]
    queries = [QueryRecord(query_index=i, target_time=0, desired_index=i + 100,
                           device=0, position=pos, round=pos)
               for i, pos in enumerate(positions)]
    return RunReport(strategy=strategy, total_bandwidth=4, num_cameras=2,
                     gallery_size=500, num_queries=len(queries), num_skipped=3,
                     pair_columns=columns(PairColumns, pairs),
                     query_columns=columns(QueryColumns, queries))


def ranked(query_identity, query_camera, ids, cams):
    same_identity = np.asarray(ids, dtype=np.int64) == query_identity
    same_camera = np.asarray(cams, dtype=np.int64) == query_camera
    return RankedQuery(query_identity=query_identity, query_camera=query_camera,
                       positions=np.flatnonzero(same_identity) + 1,
                       on_query_camera=same_camera[same_identity])


def test_mtn_is_the_pair_mean():
    assert mtn(make_report(tns=(1, 2, 3), positions=(1,))) == 2.0
    with pytest.raises(DataError):
        mtn(make_report(positions=(1,)))


def test_precise_rank_k_counts_arrivals_within_k():
    report = make_report(tns=(1,), positions=(1, 3, 7))
    assert precise_rank_k(report, 1) == pytest.approx(1 / 3)
    assert precise_rank_k(report, 3) == pytest.approx(2 / 3)
    assert precise_rank_k(report, 6) == pytest.approx(2 / 3)
    assert precise_rank_k(report, 7) == 1.0
    with pytest.raises(InputError):
        precise_rank_k(report, 0)
    with pytest.raises(DataError):
        precise_rank_k(make_report(tns=(1,)), 1)


def test_mean_precise_rank_hand_value():
    report = make_report(tns=(1,), positions=(1, 3, 7))
    assert mean_precise_rank(report) == pytest.approx(11 / 3)
    with pytest.raises(DataError):
        mean_precise_rank(make_report(tns=(1,)))


def test_undelivered_target_item_is_an_error():
    report = make_report(tns=(1,), positions=(1, -1))
    with pytest.raises(DataError, match="never delivered"):
        precise_rank_k(report, 5)
    with pytest.raises(DataError, match="never delivered"):
        mean_precise_rank(report)


@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_precise_rank_monotone_and_tail_sum(positions):
    report = make_report(tns=(1,), positions=tuple(positions))
    max_pos = max(positions)
    curve = [precise_rank_k(report, k) for k in range(1, max_pos + 1)]
    assert all(a <= b for a, b in zip(curve, curve[1:]))
    assert curve[-1] == 1.0
    tail_sum = 1.0 + sum(1.0 - c for c in curve)
    assert mean_precise_rank(report) == pytest.approx(tail_sum, abs=1e-12)


def test_summarize_collects_everything():
    report = make_report(tns=(1, 2, 3, 4), positions=(1, 3, 7))
    s = summarize(report, ks=(1, 5))
    assert s.strategy == "visual"
    assert s.mtn == 2.5
    assert s.precise_rank == {1: pytest.approx(1 / 3), 5: pytest.approx(2 / 3)}
    assert s.mean_precise_rank == pytest.approx(11 / 3)
    assert s.num_queries == 3 and s.num_pairs == 4 and s.num_skipped == 3
    d = s.to_dict()
    assert set(d["precise_rank"]) == {"1", "5"}


def test_cmc_map_hand_example():
    # query id 9 seen from camera 0; gallery ranks: match, miss, match, miss
    queries = [
        ranked(9, 0, ids=[9, 1, 9, 2], cams=[1, 1, 1, 1]),   # AP (1/1 + 2/3)/2
        ranked(9, 0, ids=[1, 9, 2, 3], cams=[1, 1, 1, 1]),   # AP 1/2
    ]
    cmc, mean_ap, evaluated, skipped = cmc_map(queries, ks=(1, 2, 4))
    assert cmc == {1: 0.5, 2: 1.0, 4: 1.0}
    assert mean_ap == pytest.approx((5 / 6 + 1 / 2) / 2)
    assert evaluated == 2 and skipped == 0


def test_cmc_map_removes_same_camera_matches():
    # the first entry matches the id but shares the query camera: a distractor,
    # so the real first match sits at rank 1 of the cleaned list
    q = ranked(4, 0, ids=[4, 4, 1], cams=[0, 1, 1])
    cmc, mean_ap, evaluated, skipped = cmc_map([q], ks=(1,))
    assert cmc == {1: 1.0}
    assert mean_ap == 1.0
    # same-camera-only queries are skipped, not scored
    lonely = ranked(4, 0, ids=[4, 1], cams=[0, 1])
    cmc, mean_ap, evaluated, skipped = cmc_map([q, lonely], ks=(1,))
    assert evaluated == 1 and skipped == 1


@pytest.mark.parametrize("p", range(1, 11))
def test_single_match_ap_is_reciprocal_rank(p):
    ids = [0] * (p - 1) + [5] + [0] * (10 - p)
    q = ranked(5, 0, ids=ids, cams=[1] * 10)
    _, mean_ap, _, _ = cmc_map([q], ks=(1,))
    assert mean_ap == pytest.approx(1.0 / p, abs=1e-15)


def test_multi_match_ap():
    q = ranked(2, 0, ids=[1, 2, 3, 4, 2], cams=[1] * 5)
    _, mean_ap, _, _ = cmc_map([q], ks=(1,))
    assert mean_ap == pytest.approx((1 / 2 + 2 / 5) / 2)


def test_cmc_map_validation():
    q = ranked(4, 0, ids=[4], cams=[0])
    with pytest.raises(DataError, match="valid cross-camera match"):
        cmc_map([q], ks=(1,))
    with pytest.raises(InputError):
        cmc_map([q], ks=())
    with pytest.raises(InputError):
        cmc_map([q], ks=(0,))


def test_record_fields_match_their_columns():
    assert PairColumns._fields == tuple(f.name for f in dataclasses.fields(PairRecord))
    assert QueryColumns._fields == tuple(
        f.name for f in dataclasses.fields(QueryRecord))


def reference_cmc_map(same_identity, same_camera, ks):
    """cmc_map on per-item bool arrays, one (same identity, same camera) pair
    per ranked query: the form RankedQuery held before it kept positions."""
    ks = sorted(set(int(k) for k in ks))
    hits = np.zeros(len(ks))
    ap_sum = 0.0
    evaluated = skipped = 0
    for ident, cam in zip(same_identity, same_camera):
        matches = ident[~(ident & cam)]
        total = int(matches.sum())
        if total == 0:
            skipped += 1
            continue
        evaluated += 1
        positions = np.flatnonzero(matches) + 1
        for i, k in enumerate(ks):
            if positions[0] <= k:
                hits[i] += 1.0
        ap_sum += float((np.arange(1, total + 1) / positions).mean())
    if evaluated == 0:
        raise DataError("no query had a valid cross-camera match")
    cmc = {k: float(hits[i] / evaluated) for i, k in enumerate(ks)}
    return cmc, ap_sum / evaluated, evaluated, skipped


# each entry of a ranked list: 0 another identity, 1 a match on another
# camera, 2 a match on the query's camera (a distractor)
ranked_lists = st.lists(st.lists(st.integers(0, 2), max_size=40), min_size=1,
                        max_size=6)


@given(ranked_lists, st.lists(st.integers(1, 45), min_size=1, max_size=6))
@example([[0, 0, 0]], [1])                 # no matches
@example([[2, 0, 2], [2]], [1, 1])         # only distractors, duplicate ks
@example([[1, 0, 2, 0, 1]], [1, 5, 5])     # matches first and last
@example([[2, 2, 1, 0, 2, 1], [0, 1]], [2, 3, 20])
@settings(max_examples=200, deadline=None)
def test_cmc_map_on_positions_matches_the_bool_arrays(lists, ks):
    same_identity = [np.array(entries, dtype=np.int64) > 0 for entries in lists]
    same_camera = [np.array(entries, dtype=np.int64) == 2 for entries in lists]
    queries = [RankedQuery(query_identity=7, query_camera=0,
                           positions=np.flatnonzero(ident) + 1,
                           on_query_camera=cam[ident])
               for ident, cam in zip(same_identity, same_camera)]
    try:
        want = reference_cmc_map(same_identity, same_camera, ks)
    except DataError:
        with pytest.raises(DataError, match="valid cross-camera match"):
            cmc_map(queries, ks)
        return
    cmc, mean_ap, evaluated, skipped = cmc_map(queries, ks)
    assert cmc == want[0]
    assert mean_ap.hex() == want[1].hex()
    assert (evaluated, skipped) == want[2:]


def reference_summary(report, ks):
    """summarize's numbers from the record lists, as the metrics read them
    before reports kept columns."""
    positions = np.array([q.position for q in report.queries])
    return {"strategy": report.strategy,
            "mtn": float(np.mean([p.tn for p in report.pairs])),
            "precise_rank": {str(k): float(np.mean(positions <= k)) for k in ks},
            "mean_precise_rank": float(positions.mean()),
            "num_queries": report.num_queries, "num_pairs": len(report.pairs),
            "num_skipped": report.num_skipped}


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=300),
       st.lists(st.integers(1, 10**5), min_size=1, max_size=300))
@settings(max_examples=100, deadline=None)
def test_summarize_from_columns_equals_the_record_lists(tns, positions):
    report = make_report(tns=tns, positions=positions)
    got = summarize(report, ks=(1, 5, 10, 20)).to_dict()
    want = reference_summary(report, (1, 5, 10, 20))
    assert got == want
    for name in ("mtn", "mean_precise_rank"):
        assert got[name].hex() == want[name].hex()
