import itertools
import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from procure import valuation
from procure.valuation import (
    NOISY_MEMO_MAX_INTS,
    AdditiveOracle,
    AdversarialFamilyOracle,
    CoverageInstance,
    CoverageOracle,
    NoisyOracle,
    sum_in_order,
)
from procure.instances import random_instance
from procure.sealed_bid import run_sealed_bid, sealed_bid_runner, verify_ic
from procure.scoring import RandomSeed
from procure.selection import ARRAY_ROUND_MIN
from conftest import edge_case_instances, random_oracle, rule_and_oracle, synthetic_instances


class TestCoverage:
    def test_empty_set_is_zero(self, coverage_pair):
        assert coverage_pair.value(()) == 0.0

    def test_union_value(self, coverage_pair):
        assert coverage_pair.value((0, 1)) == 6.0

    def test_marginal_after_overlap(self, coverage_pair):
        assert coverage_pair.marginal(0, (1,)) == 1.0

    def test_marginal_on_empty_equals_singleton(self, coverage_pair):
        for i in range(coverage_pair.n):
            assert coverage_pair.marginal(i, ()) == coverage_pair.value((i,))

    def test_out_of_range_index_rejected(self, coverage_pair):
        with pytest.raises(ValueError):
            coverage_pair.value((0, 5))
        with pytest.raises(ValueError):
            coverage_pair.marginal(9, ())

    def test_marginal_of_member_rejected(self, coverage_pair):
        with pytest.raises(ValueError):
            coverage_pair.marginal(0, (0, 1))

    def test_json_roundtrip(self, coverage_pair):
        doc = coverage_pair.instance.to_json()
        again = CoverageInstance.from_json(json.loads(json.dumps(doc)))
        assert again == coverage_pair.instance

    def test_bad_vertex_reference_rejected(self):
        with pytest.raises(ValueError):
            CoverageInstance(covers=((0, 7),), vertex_values=(1.0,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_value_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CoverageInstance(covers=((0, 1), (1, 2)), vertex_values=(bad, 2.0, 3.0))

    def test_non_finite_vertex_value_rejected_from_json(self, coverage_pair):
        doc = coverage_pair.instance.to_json()
        doc["vertex_values"][0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            CoverageInstance.from_json(json.loads(json.dumps(doc)))

    def test_query_counter(self, coverage_pair):
        coverage_pair.reset_query_count()
        coverage_pair.value((0,))
        coverage_pair.marginal(1, (0,))
        assert coverage_pair.query_count == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_monotone_and_submodular(seed):
    oracle, _ = random_oracle(seed, 2, 8)
    n = oracle.n
    sellers = list(range(n))
    for s_mask in range(0, 2**n, max(1, 2**n // 16)):
        s = tuple(i for i in sellers if s_mask >> i & 1)
        t = tuple(sorted(set(s) | {sellers[s_mask % n]}))
        assert oracle.value(s) <= oracle.value(t) + 1e-12
        for i in sellers:
            if i in t:
                continue
            sub = tuple(x for x in t if x in s)
            assert oracle.marginal(i, sub) >= oracle.marginal(i, t) - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_incremental_marginal_consistency(seed):
    oracle, _ = random_oracle(seed, 2, 8)
    scratch = oracle.scratch()
    members = []
    for i in range(oracle.n):
        expected = oracle.value(tuple(members + [i])) - oracle.value(tuple(members))
        assert abs(scratch.marginal(i) - expected) < 1e-12
        if i % 2 == 0:
            scratch.add(i)
            members.append(i)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_scratch_marginal_equals_oracle_marginal_exactly(seed):
    """Incremental and from-scratch marginals agree bit for bit along a run."""
    coverage, _ = random_oracle(seed, 2, 10)
    rng = np.random.default_rng(seed)
    oracles = (
        coverage,
        AdditiveOracle(rng.uniform(0.0, 1.0, size=coverage.n)),
        AdversarialFamilyOracle(coverage.n),
        NoisyOracle(coverage, 0.1, seed),
    )
    for oracle in oracles:
        scratch = oracle.scratch()
        for i in rng.permutation(oracle.n):
            for j in range(oracle.n):
                if j not in scratch:
                    assert scratch.marginal(j) == oracle.marginal(j, scratch.members)
            if rng.random() < 0.5:
                scratch.add(int(i))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_array_marginals_equal_scalar_marginals_exactly(seed):
    """``marginals`` agrees bit for bit with ``marginal`` and charges one query
    per index, after adds and removes (which invalidate the coverage vector)."""
    coverage, _ = random_oracle(seed, 2, 40)
    rng = np.random.default_rng(seed)
    for oracle in (coverage, AdditiveOracle(rng.uniform(0.0, 1.0, size=coverage.n)), NoisyOracle(coverage, 0.1, seed)):
        scratch = oracle.scratch()
        for i in rng.permutation(oracle.n).tolist():
            if i in scratch:
                continue
            outside = np.array([j for j in range(oracle.n) if j not in scratch], dtype=np.intp)
            before = oracle.query_count
            got = scratch.marginals(outside)
            assert oracle.query_count - before == len(outside)
            assert got.tolist() == [scratch.marginal(j) for j in outside.tolist()]
            scratch.add(i)
            if rng.random() < 0.3:
                scratch.remove(i)


def test_coverage_sums_add_left_to_right():
    """1e16 + 1.0 + 1.0 is 1e16 left to right; a compensated sum gives 1e16 + 2."""
    oracle = CoverageOracle(CoverageInstance(covers=((0, 1, 2),), vertex_values=(1e16, 1.0, 1.0)))
    assert oracle.value((0,)) == 1e16
    assert oracle.marginal(0, ()) == 1e16
    assert oracle.scratch().marginal(0) == 1e16
    assert oracle.scratch().marginals(np.array([0])).tolist() == [1e16]


@pytest.mark.parametrize("seed", range(3))
def test_coverage_kernels_match_sum_in_order(seed):
    """The in-frame sums of the scratch (scalar, whole and partial vector
    reads) and of the oracle's value and marginal give the bits of
    ``sum_in_order`` over the same terms in the same order, through
    interleaved adds and removes."""
    n = ARRAY_ROUND_MIN + 8 * seed
    oracle = CoverageOracle(random_instance(n, seed)[0])
    values, covers = oracle.vertex_values, oracle.covers
    rng = np.random.default_rng(seed)
    scratch = oracle.scratch()
    reads = {"whole": 0, "partial": 0}
    for step in range(3 * n):
        members = scratch.members
        covered: set[int] = set()
        for j in members:
            covered.update(covers[j])
        value = sum_in_order(values[v] for v in covered)
        assert oracle.value(members).hex() == value.hex()
        outside = [i for i in range(n) if i not in scratch]
        expected = [sum_in_order(values[v] for v in covers[i] if v not in covered).hex() for i in outside]
        assert [oracle.marginal(i, members).hex() for i in outside] == expected
        assert [scratch.marginal(i).hex() for i in outside] == expected
        if step % 3 != 2 and outside:  # a third of the changes come two in a row: a whole rebuild
            reads["whole" if scratch._vector is None else "partial"] += 1
            assert [m.hex() for m in scratch.marginals(np.array(outside, dtype=np.intp)).tolist()] == expected
        if members and (rng.random() < 0.3 or not outside):
            scratch.remove(members[int(rng.integers(len(members)))])
        else:
            scratch.add(outside[int(rng.integers(len(outside)))])
    assert reads["whole"] > 1 and reads["partial"] > 1


def test_additive_scratch_uses_the_oracle_marginal():
    oracle = AdditiveOracle([0.1, 0.2])
    scratch = oracle.scratch()
    scratch.add(0)
    assert scratch.marginal(1) == oracle.marginal(1, (0,)) == 0.2


def test_scratch_remove_restores_marginals(coverage_pair):
    scratch = coverage_pair.scratch()
    before = [scratch.marginal(i) for i in range(2)]
    scratch.add(0)
    scratch.remove(0)
    assert [scratch.marginal(i) for i in range(2)] == before
    assert scratch.members == ()


@pytest.mark.parametrize("make_oracle", [
    lambda: random_oracle(17, 6, 9)[0],
    lambda: AdversarialFamilyOracle(4),
    lambda: NoisyOracle(random_oracle(18, 6, 9)[0], 0.1, seed=2),
], ids=["coverage", "family", "noisy"])
def test_scratch_copy_is_an_independent_checkpoint(make_oracle):
    """A copy answers like the original, costs no query, and neither sees
    the other's later admissions.  ``add`` charges one query, ``remove``
    and ``copy`` none."""
    oracle = make_oracle()
    start = oracle.query_count
    scratch = oracle.scratch()
    scratch.add(0)
    assert oracle.query_count == start + 1
    scratch.add(1)
    scratch.remove(1)
    assert oracle.query_count == start + 2
    scratch.marginals(np.arange(1, oracle.n))  # the coverage vector is cached before the copy
    queries = oracle.query_count
    twin = scratch.copy()
    assert type(twin) is type(scratch) and oracle.query_count == queries
    assert twin.members == scratch.members
    rest = np.arange(1, oracle.n)
    assert twin.marginals(rest).tolist() == scratch.marginals(rest).tolist()
    twin.add(1)
    scratch.add(2)
    assert twin.members == (0, 1) and scratch.members == (0, 2)
    assert [twin.marginal(i) for i in range(3, oracle.n)] == [oracle.marginal(i, (0, 1)) for i in range(3, oracle.n)]
    assert [scratch.marginal(i) for i in range(3, oracle.n)] == [oracle.marginal(i, (0, 2)) for i in range(3, oracle.n)]
    assert scratch.marginals(np.arange(3, oracle.n)).tolist() == [oracle.marginal(i, (0, 2)) for i in range(3, oracle.n)]


def _assert_exact_vector(oracle, scratch):
    """The scratch's marginals equal a fresh scratch's full build and the
    scalar marginals, bit for bit."""
    members = scratch.members
    outside = np.array([i for i in range(oracle.n) if i not in scratch], dtype=np.intp)
    fresh = oracle.scratch()
    for i in members:
        fresh.add(i)
    got = scratch.marginals(outside).tolist()
    assert got == fresh.marginals(outside).tolist()
    assert got == [oracle.marginal(i, members) for i in outside.tolist()]


def _coverage_oracle(seed: int, synthetic: bool) -> CoverageOracle:
    """A coverage oracle with at least ``ARRAY_ROUND_MIN`` sellers: sparse
    random covers, or overlapping ones cut from a synthetic graph."""
    if synthetic:
        return CoverageOracle(synthetic_instances(3)[seed % 3][0])
    return random_oracle(seed, ARRAY_ROUND_MIN, 2 * ARRAY_ROUND_MIN)[0]


_SCRATCH_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove", "copy", "read", "read"]), st.integers(0, 10**6)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), _SCRATCH_OPS)
def test_partial_rebuild_equals_full_build_exactly(seed, synthetic, ops):
    """Any sequence of adds, removes, copies and reads leaves every scratch's
    vector equal to a fresh full build and to the scalar marginals."""
    oracle = _coverage_oracle(seed, synthetic)
    assert oracle.n >= ARRAY_ROUND_MIN
    scratches = [oracle.scratch()]
    for op, r in ops:
        scratch = scratches[r % len(scratches)]
        members = scratch.members
        if op == "add" and len(members) < oracle.n:
            outside = [i for i in range(oracle.n) if i not in scratch]
            scratch.add(outside[r % len(outside)])
        elif op == "remove" and members:
            scratch.remove(members[r % len(members)])
        elif op == "copy":
            scratches.append(scratch.copy())
        elif op == "read" and len(members) < oracle.n:
            _assert_exact_vector(oracle, scratch)
    for scratch in scratches:
        if len(scratch.members) < oracle.n:
            _assert_exact_vector(oracle, scratch)


def test_copy_and_original_each_update_their_own_vector():
    """After a copy, the twin and the original admit different sellers and
    each reads the marginals of its own set; a copy taken between a change
    and the next read takes the pending flips along."""
    oracle = _coverage_oracle(0, synthetic=True)
    scratch = oracle.scratch()
    scratch.marginals(np.arange(oracle.n))
    twin = scratch.copy()
    a, b = 0, 1
    assert any(oracle.marginal(j, (a,)) != oracle.marginal(j, (b,)) for j in range(2, oracle.n))
    scratch.add(a)
    twin.add(b)
    assert scratch._flipped and twin._flipped  # one change each: partial reads
    _assert_exact_vector(oracle, scratch)
    _assert_exact_vector(oracle, twin)
    assert scratch._vector is not twin._vector
    scratch.add(2)
    pending = scratch.copy()
    assert pending._flipped == scratch._flipped
    pending.add(3)  # a second change: the pending copy drops its vector
    assert pending._vector is None and scratch._vector is not None
    _assert_exact_vector(oracle, scratch)
    _assert_exact_vector(oracle, pending)
    late = twin.copy()
    twin.add(4)
    late_copy = twin.copy()
    _assert_exact_vector(oracle, late_copy)
    _assert_exact_vector(oracle, twin)
    _assert_exact_vector(oracle, late)


def test_two_changes_without_a_read_drop_the_vector():
    """The first change after a read is recorded; a second one drops the
    vector, and the next read builds it whole without the vertex index."""
    oracle = _coverage_oracle(1, synthetic=True)
    scratch = oracle.scratch()
    scratch.marginals(np.arange(oracle.n))
    scratch.add(0)
    assert scratch._vector is not None and scratch._flipped is not None
    scratch.add(1)
    assert scratch._vector is None and scratch._flipped is None
    _assert_exact_vector(oracle, scratch)
    assert scratch._vector is not None and oracle._holders is None
    scratch.remove(1)
    _assert_exact_vector(oracle, scratch)
    assert oracle._holders is not None


def test_add_covering_reports_the_newly_covered_vertices():
    """``add_covering`` admits as ``add`` does (one query, the same flip
    record) and returns the vertices it newly covered, in cover order."""
    oracle = _coverage_oracle(2, synthetic=True)
    scratch, twin = oracle.scratch(), oracle.scratch()
    for i in range(6):
        if i % 2:  # odd admissions follow a read, so the vector records their flips
            scratch.marginals(np.arange(oracle.n))
            twin.marginals(np.arange(oracle.n))
        covered = {v for j in scratch.members for v in oracle.covers[j]}
        before = oracle.query_count
        newly = scratch.add_covering(i)
        assert oracle.query_count == before + 1
        assert newly == [v for v in oracle.covers[i] if v not in covered]
        twin.add(i)
        assert scratch._flipped == twin._flipped and scratch.members == twin.members
        _assert_exact_vector(oracle, scratch)
        _assert_exact_vector(oracle, twin)
    with pytest.raises(ValueError):
        scratch.add_covering(0)


def _loop_cover_arrays(oracle):
    """The per-seller construction of the cover matrix: one slice
    assignment per seller, then a transposed copy."""
    nv = len(oracle.vertex_values)
    width = max(map(len, oracle.covers), default=0)
    matrix = np.full((oracle.n, width), nv, dtype=np.intp)
    for i, cov in enumerate(oracle.covers):
        matrix[i, : len(cov)] = cov
    return np.ascontiguousarray(matrix.T), np.array(oracle.vertex_values + (0.0,), dtype=float)


#: Edge cases of the kernels: no vertex in any cover (width 0), no seller,
#: one empty cover among others, and covers that are unsorted or repeat a vertex.
KERNEL_INSTANCES = {
    "all-empty": CoverageInstance(covers=((), (), ()), vertex_values=(1.0, 2.0)),
    "no-sellers": CoverageInstance(covers=(), vertex_values=(1.0,)),
    "one-empty": CoverageInstance(covers=((0, 2), (), (1, 2, 3)), vertex_values=(0.5, 1.0, 2.0, 0.1)),
    "non-canonical": CoverageInstance(
        covers=((3, 1, 3), (2, 0), (), (1, 1), (0, 1, 2, 3)), vertex_values=(0.1, 0.3, 0.7, 1 / 3)
    ),
}


def _kernel_oracles():
    yield from KERNEL_INSTANCES.values()
    yield from (random_instance(n, seed)[0] for n in (1, 5, ARRAY_ROUND_MIN + 9) for seed in range(2))
    yield from (instance for instance, _ in synthetic_instances(2))


@pytest.mark.parametrize("instance", list(_kernel_oracles()))
def test_cover_kernels_match_loop_built_references(instance):
    """The cover matrix equals the per-seller build (shape, dtype, layout,
    entries), and each vertex's holders are exactly the sellers whose
    canonical cover holds it, ascending.  Each seller's neighbours are the
    sellers whose cover meets its own, ascending, and the masked marginals
    are the scalar kernel's left-to-right sums over the uncovered vertices,
    bit for bit."""
    oracle = CoverageOracle(instance)
    matrix, values = oracle._cover_arrays()
    ref_matrix, ref_values = _loop_cover_arrays(oracle)
    assert matrix.dtype == ref_matrix.dtype and matrix.shape == ref_matrix.shape
    assert matrix.flags.c_contiguous
    assert np.array_equal(matrix, ref_matrix)
    assert [v.hex() for v in values.tolist()] == [v.hex() for v in ref_values.tolist()]
    assert oracle._vertex_holders() == tuple(
        tuple(i for i, cov in enumerate(instance.covers) if v in cov) for v in range(len(instance.vertex_values))
    )
    offsets, sharers = oracle._neighbours()
    covers = [set(cov) for cov in oracle.covers]
    assert [sharers[offsets[i] : offsets[i + 1]].tolist() for i in range(oracle.n)] == [
        [j for j in range(oracle.n) if covers[i] & covers[j]] for i in range(oracle.n)
    ]
    covered = np.random.default_rng(oracle.n).random((3, len(values))) < 0.5
    rows, sellers = np.repeat(np.arange(3), oracle.n), np.tile(np.arange(oracle.n), 3)
    want = [
        sum_in_order(instance.vertex_values[v] for v in oracle.covers[i] if not covered[r, v])
        for r, i in zip(rows.tolist(), sellers.tolist())
    ]
    assert [m.hex() for m in oracle._masked_marginals(covered, rows, sellers).tolist()] == [m.hex() for m in want]


def test_canonical_covers_are_reused_and_others_canonicalized():
    """The validation pass flags whether every cover is strictly ascending;
    the oracle then works on the instance's own covers, else on sorted,
    duplicate-free copies."""
    assert KERNEL_INSTANCES["one-empty"].canonical and KERNEL_INSTANCES["all-empty"].canonical
    oracle = CoverageOracle(KERNEL_INSTANCES["one-empty"])
    assert oracle.covers is KERNEL_INSTANCES["one-empty"].covers
    messy = KERNEL_INSTANCES["non-canonical"]
    assert not messy.canonical
    assert CoverageOracle(messy).covers == ((1, 3), (0, 2), (), (1,), (0, 1, 2, 3))
    for covers in [((1, 0),), ((0, 0),), ((0,), (2, 1))]:
        assert not CoverageInstance(covers=covers, vertex_values=(1.0, 1.0, 1.0)).canonical
    # the flag takes no part in equality, hashing or the repr
    twin = CoverageInstance(covers=messy.covers, vertex_values=messy.vertex_values)
    assert twin == messy and hash(twin) == hash(messy) and "canonical" not in repr(twin)


def test_oracle_over_non_canonical_covers_answers_as_canonical_ones():
    """value, marginal, and scalar and array scratch marginals over unsorted
    or repeating covers give the bits of the same oracle over the
    canonicalized covers; values also match the set-based definition up
    to rounding."""
    messy = KERNEL_INSTANCES["non-canonical"]
    clean = CoverageInstance(covers=tuple(tuple(sorted(set(c))) for c in messy.covers), vertex_values=messy.vertex_values)
    assert clean.canonical
    a, b = CoverageOracle(messy), CoverageOracle(clean)
    n, values = a.n, messy.vertex_values
    for r in range(n + 1):
        for s in itertools.combinations(range(n), r):
            covered = set().union(*(messy.covers[j] for j in s))
            assert a.value(s).hex() == b.value(s).hex()
            assert a.value(s) == pytest.approx(math.fsum(values[v] for v in covered))
            outside = [i for i in range(n) if i not in s]
            expected = [b.marginal(i, s).hex() for i in outside]
            assert [a.marginal(i, s).hex() for i in outside] == expected
            scratch = a.scratch()
            for j in s:
                scratch.add(j)
            assert [scratch.marginal(i).hex() for i in outside] == expected
            got = scratch.marginals(np.array(outside, dtype=np.intp)).tolist()
            assert [m.hex() for m in got] == expected


class TestAdversarialFamily:
    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_exhaustive_case_definition(self, L):
        oracle = AdversarialFamilyOracle(L)
        n = L + 2
        for r in range(n + 1):
            for s in itertools.combinations(range(n), r):
                if set(s) & {L, L + 1}:
                    assert oracle.value(s) == L
                else:
                    assert oracle.value(s) == len(s)

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_marginals_match_value_difference(self, L):
        oracle = AdversarialFamilyOracle(L)
        n = L + 2
        for r in range(n):
            for s in itertools.combinations(range(n), r):
                for i in range(n):
                    if i in s:
                        continue
                    direct = oracle.value(tuple(sorted(s + (i,)))) - oracle.value(s)
                    assert oracle.marginal(i, s) == direct

    def test_pinned_family_values(self):
        # 1-based sellers {1,2,4} with L=3 correspond to indices {0,1,3}
        oracle = AdversarialFamilyOracle(3)
        assert oracle.value((0, 1, 3)) == 3.0
        assert oracle.marginal(0, (3,)) == 0.0

    def test_bid_profile(self):
        oracle = AdversarialFamilyOracle(4)
        assert oracle.bids() == (0.25, 0.25, 0.25, 0.25, 2.0, 2.0)


class TestNoisyOracle:
    def test_zero_epsilon_is_exact(self, coverage_pair):
        noisy = NoisyOracle(coverage_pair, 0.0, seed=3)
        for s in [(), (0,), (1,), (0, 1)]:
            assert noisy.value(s) == coverage_pair.value(s)

    def test_bounds_hold_on_many_sets(self):
        oracle, _ = random_oracle(17, 8, 10)
        noisy = NoisyOracle(oracle, 0.1, seed=5)
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(10_000):
            size = int(rng.integers(0, oracle.n + 1))
            s = tuple(sorted(rng.choice(oracle.n, size=size, replace=False)))
            f = oracle.value(s)
            fv = noisy.value(s)
            assert (1 - 0.1) * f - 1e-12 <= fv <= (1 + 0.1) * f + 1e-12

    def test_deterministic_per_seed(self, coverage_pair):
        a = NoisyOracle(coverage_pair, 0.2, seed=9)
        b = NoisyOracle(coverage_pair, 0.2, seed=9)
        c = NoisyOracle(coverage_pair, 0.2, seed=10)
        assert a.value((0, 1)) == b.value((0, 1))
        assert a.value((0, 1)) == a.value((0, 1))
        assert a.value((0, 1)) != c.value((0, 1))

    def test_epsilon_range_validated(self, coverage_pair):
        with pytest.raises(ValueError):
            NoisyOracle(coverage_pair, 1.0)

    @pytest.mark.parametrize("seed", [1.7, 2.0, True, "3"])
    def test_seed_must_be_an_integer(self, coverage_pair, seed):
        """A float was truncated (1.7 ran as seed 1) and a bool ran as 0 or 1."""
        with pytest.raises(TypeError):
            NoisyOracle(coverage_pair, 0.1, seed=seed)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_seed_outside_int64_rejected_at_construction(self, coverage_pair, seed):
        """Such a seed used to construct and fail at the first query with a struct.error."""
        with pytest.raises(ValueError, match="64-bit"):
            NoisyOracle(coverage_pair, 0.1, seed=seed)

    @pytest.mark.parametrize("seed", [2**63 - 1, -(2**63), np.int64(5)])
    def test_seed_range_edges_and_numpy_integers_hash(self, coverage_pair, seed):
        noisy = NoisyOracle(coverage_pair, 0.1, seed=seed)
        assert type(noisy.seed) is int
        assert 0.9 * 6.0 <= noisy.value((0, 1)) <= 1.1 * 6.0


def _bits(oracle, n):
    """F and every marginal over all subsets of n sellers, as float.hex()."""
    out = []
    for size in range(n + 1):
        for s in itertools.combinations(range(n), size):
            out.append(oracle.value(s).hex())
            out += [oracle.marginal(i, s).hex() for i in range(n) if i not in s]
    return out


def _check_memo(oracle, bound):
    stored = sum(map(len, oracle._memo))
    assert stored == oracle._memo_ints <= bound


@settings(max_examples=60, deadline=None)
@given(edge_case_instances(n_min=1, n_max=6), st.sampled_from([3, 10, NOISY_MEMO_MAX_INTS]))
def test_noisy_memo_keeps_every_bit(instance, bound):
    """One oracle shared across runs (its memo filled, and under a small
    bound cleared again and again) answers bit for bit as a fresh oracle
    does: values and marginals, sealed-bid outcomes, IC reports and query
    counts; its stored key length never passes the bound."""
    instance, costs = instance
    n = instance.n_sets
    with patch.object(valuation, "NOISY_MEMO_MAX_INTS", bound):
        rule, shared = rule_and_oracle("noisy-distorted", instance)
        runner = sealed_bid_runner(rule)
        for _ in range(2):  # the second pass starts from the first's memo
            _, fresh = rule_and_oracle("noisy-distorted", instance)
            assert _bits(shared, n) == _bits(fresh, n)
            _check_memo(shared, bound)
            runs = []
            for oracle in (shared, fresh):
                oracle.reset_query_count()
                outcome = run_sealed_bid(rule, oracle, costs, seed=RandomSeed(5))
                ic = verify_ic(runner, oracle, costs, grid=4, seed=RandomSeed(5))
                runs.append((outcome.winners, [p.hex() for p in outcome.payments], outcome.value.hex(),
                             outcome.trace.chosen_at, ic, oracle.query_count))
            assert runs[0] == runs[1]
            _check_memo(shared, bound)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_additive_oracle_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        AdditiveOracle([1.0, bad])


def test_additive_oracle_marginals():
    oracle = AdditiveOracle([10.0, 4.0])
    assert oracle.value((0, 1)) == 14.0
    assert oracle.marginal(1, (0,)) == 4.0
