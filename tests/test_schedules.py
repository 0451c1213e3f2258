import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blocksplit.schedules import (BlockSchedule, CoveringError,
                                  check_concentrating,
                                  ConcentratingRow,
                                  lag_identity_check, last_activation,
                                  make_cyclic, make_explicit, make_full,
                                  make_quasicyclic_random, mu_row,
                                  record_activation, schedule_from_spec,
                                  validate_covering)


def cyclic_singletons(m):
    return make_cyclic(m, 1)


class TestGenerators:
    def test_cyclic_blocks(self):
        s = make_cyclic(4, 2)
        assert s.K == 2
        assert s.block(0) == {1, 2}
        assert s.block(1) == {3, 4}
        assert s.block(2) == {1, 2}

    def test_cyclic_wrap(self):
        s = make_cyclic(3, 2)
        assert s.K == 2
        assert s.block(0) == {1, 2}
        assert s.block(1) == {3, 1}

    @pytest.mark.parametrize("m", [2**63, int(1e308)], ids=["2**63", "1e308"])
    def test_cyclic_period_is_not_allocated(self, m):
        # the period m // gcd(m, 3) is m itself; only fetched Blocks exist
        s = make_cyclic(m, 3)
        assert s.K == -(-m // 3)
        assert s.block(0) == {1, 2, 3}
        assert s.block(5) == {16, 17, 18}

    def test_full_activation(self):
        s = make_full(5)
        assert s.K == 1
        assert s.block(7) == {1, 2, 3, 4, 5}

    def test_infeasible_sizes(self):
        with pytest.raises(ValueError):
            make_cyclic(3, 0)
        with pytest.raises(ValueError):
            make_cyclic(3, 4)

    def test_quasicyclic_covering_long_horizon(self):
        s = make_quasicyclic_random(5, 3, seed=7)
        assert validate_covering(s, 1000) is None

    def test_quasicyclic_deterministic(self):
        a = make_quasicyclic_random(6, 4, seed=3)
        b = make_quasicyclic_random(6, 4, seed=3)
        # query out of order on one of them
        assert a.block(17) == b.block(17)
        assert all(a.block(n) == b.block(n) for n in range(30))

    # SHA-256 of the first 300 blocks; every trace run on these
    # schedules depends on them
    @pytest.mark.parametrize("m, K, seed, digest", [
        (30, 5, 1, "91cbc75950068dc13c458c8b20d03ab5891fc9cb9e6c62d78e145ac052780b55"),
        (7, 4, 3, "98307a02e0bcc2b3234ade749cc94e4af257bdb50a142fc8495bc3539febbae9"),
        (12, 1, 0, "4814c9a5fef095200e6e22539daf3ff928ea1b02aa893d681ca58e1852c5c240"),
        (1, 3, 2, "908be9410ad636ad0ebfb81730b11a7b83819a545c28b9fac4aa542a897592a3"),
    ])
    def test_quasicyclic_blocks_pinned(self, m, K, seed, digest):
        s = make_quasicyclic_random(m, K, seed)
        text = ";".join(",".join(map(str, sorted(s.block(n))))
                        for n in range(300))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_explicit_and_spec(self):
        s = schedule_from_spec({"type": "explicit", "m": 3, "K": 2,
                                "blocks": [[1, 2], [3]]})
        assert s.block(0) == {1, 2} and s.block(1) == {3} and s.block(2) == {1, 2}
        with pytest.raises(ValueError):
            schedule_from_spec({"type": "nope", "m": 2})
        with pytest.raises(ValueError):
            make_explicit(2, 1, [[1, 5]])

    def test_empty_block_rejected(self):
        s = BlockSchedule(2, 1, lambda n: frozenset())
        with pytest.raises(CoveringError):
            s.block(0)


class TestCovering:
    def test_cyclic_singletons_cover_per_period(self):
        assert validate_covering(cyclic_singletons(3), 30) is None

    def test_undersized_window_detected(self):
        s = BlockSchedule(3, 2, lambda n: cyclic_singletons(3).block(n))
        assert validate_covering(s, 10) == (0, [3])

    def test_full_activation_k1(self):
        s = make_explicit(2, 1, [[1, 2]])
        assert validate_covering(s, 5) is None

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            validate_covering(make_cyclic(3, 1), 2)

    def test_corrupt_block_propagates(self):
        s = BlockSchedule(3, 2, lambda n: {1, 2, 3} if n != 3 else set())
        with pytest.raises(CoveringError, match="empty block at n=3"):
            validate_covering(s, 10)

    def test_error_carries_window(self):
        last = np.full(4, -1)
        record_activation(last, np.array([0, 1]), 0, 2)
        with pytest.raises(CoveringError) as info:
            record_activation(last, np.array([1]), 1, 2)
        assert (info.value.start, info.value.missing) == (0, [3, 4])
        assert all(type(i) is int for i in info.value.missing)


class TestLastActivation:
    def test_cyclic_singletons(self):
        s = cyclic_singletons(3)
        assert last_activation(s, 1, 2) == 0
        assert last_activation(s, 2, 2) == 1
        assert last_activation(s, 3, 2) == 2

    def test_full_activation(self):
        s = make_full(4)
        for n in range(5):
            assert all(last_activation(s, i, n) == n for i in range(1, 5))

    def test_window_inspection(self):
        s = make_explicit(2, 2, [[1, 2], [2]])
        assert last_activation(s, 1, 1) == 0
        assert last_activation(s, 2, 1) == 1

    def test_preconditions(self):
        s = cyclic_singletons(3)
        with pytest.raises(ValueError):
            last_activation(s, 1, 1)  # n < K-1
        with pytest.raises(ValueError):
            last_activation(s, 9, 4)

    def test_corrupt_schedule_detected(self):
        s = BlockSchedule(2, 2, lambda n: frozenset({1}))
        with pytest.raises(CoveringError):
            last_activation(s, 2, 5)

    def test_window_membership_properties(self):
        for seed in range(4):
            s = make_quasicyclic_random(5, 3, seed=seed)
            assert validate_covering(s, 1000) is None
            for n in range(s.K - 1, 1000):
                blk = s.block(n)
                for i in range(1, 6):
                    c = last_activation(s, i, n)
                    assert n - s.K + 1 <= c <= n
                    assert i in s.block(c)
                    if i in blk:
                        assert c == n


class TestRecordActivation:
    @pytest.mark.parametrize("schedule", [
        make_quasicyclic_random(7, 4, seed=3), make_cyclic(10, 3),
        make_explicit(4, 3, [[1, 2], [3], [4, 1], [2, 3, 4]])])
    def test_running_list_matches_window_scan(self, schedule):
        last = np.full(schedule.m, -1)
        for n in range(300):
            record_activation(last, schedule.block(n).idx, n, schedule.K)
            if n >= schedule.K - 1:
                assert last.tolist() == [last_activation(schedule, i, n)
                                         for i in range(1, schedule.m + 1)]


class TestMuRow:
    def test_unit_mass_before_window_fills(self):
        s = cyclic_singletons(3)  # K = 3
        row = mu_row(s, [0.2, 0.3, 0.5], 1)
        assert row.entries == {1: 1.0}

    def test_full_activation_concentrates_on_diagonal(self):
        s = make_full(4)
        row = mu_row(s, [0.25] * 4, 9)
        assert row.entries == {9: 1.0}

    def test_set_difference_weights_at_window_start(self):
        s = make_explicit(2, 2, [[1], [2]])
        row = mu_row(s, [0.3, 0.7], 1)
        assert row.entries[0] == pytest.approx(0.3)
        assert row.entries[1] == pytest.approx(0.7)

    def test_rows_satisfy_invariants(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            m = int(rng.integers(2, 7))
            K = int(rng.integers(1, 5))
            s = make_quasicyclic_random(m, K, seed=seed)
            w = rng.random(m) + 0.1
            w /= w.sum()
            for n in range(60):
                row = mu_row(s, w, n)
                assert abs(row.total() - 1.0) <= 1e-12
                assert all(n - j < K and 0 <= j <= n for j in row.entries)
                if n >= K - 1:
                    assert row.diagonal() >= w.min() - 1e-15
                else:
                    assert row.entries == {n: 1.0}

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            mu_row(cyclic_singletons(2), [0.9, 0.2], 3)


class TestConcentratingChecker:
    def make_rows(self, s, w, horizon):
        return [mu_row(s, w, n) for n in range(horizon)]

    def test_generated_rows_pass(self):
        s = make_quasicyclic_random(4, 3, seed=5)
        rows = self.make_rows(s, [0.25] * 4, 80)
        report = check_concentrating(rows, s.K)
        assert report.passed
        assert report.diagonal_infimum >= 0.25 - 1e-15

    def test_sum_mutation_fails(self):
        s = make_cyclic(3, 1)
        rows = self.make_rows(s, [1 / 3] * 3, 20)
        rows[7].entries[7] -= 0.1
        report = check_concentrating(rows, s.K)
        assert not report.passed and not report.sum_ok

    def test_band_mutation_fails(self):
        s = make_cyclic(3, 1)
        rows = self.make_rows(s, [1 / 3] * 3, 20)
        n = 10
        moved = rows[n].entries.pop(n - s.K + 1)
        rows[n].entries[n - s.K] = moved  # mass at depth exactly K
        report = check_concentrating(rows, s.K)
        assert not report.passed and not report.band_ok

    def test_diagonal_mutation_fails(self):
        s = make_cyclic(3, 1)
        rows = self.make_rows(s, [1 / 3] * 3, 20)
        n = 12
        mass = rows[n].entries.pop(n)
        rows[n].entries[n - 1] = rows[n].entries.get(n - 1, 0.0) + mass
        report = check_concentrating(rows, s.K)
        assert not report.passed
        assert report.diagonal_infimum == 0.0

    def test_handmade_row(self):
        row = ConcentratingRow(n=4, entries={4: 0.6, 3: 0.4})
        assert row.dot([0, 0, 0, 1.0, 2.0]) == pytest.approx(1.6)


class TestLagIdentity:
    def test_constant_sequence(self):
        s = make_quasicyclic_random(4, 2, seed=1)
        assert lag_identity_check(s, [0.25] * 4, 6, np.ones(7), tol=1e-15)

    def test_full_activation(self):
        s = make_full(3)
        xs = np.array([5.0, 1.0, 2.0, 9.0])
        assert lag_identity_check(s, [1 / 3] * 3, 3, xs, tol=1e-15)

    def test_random_draws(self):
        rng = np.random.default_rng(42)
        checks = 0
        while checks < 1000:
            m = int(rng.integers(2, 5))
            K = int(rng.integers(1, 4))
            s = make_quasicyclic_random(m, K, seed=int(rng.integers(0, 10_000)))
            w = rng.random(m) + 0.05
            w /= w.sum()
            n = int(rng.integers(K - 1, 40))
            xs = rng.random(n + 1) * 10.0
            assert lag_identity_check(s, w, n, xs, tol=1e-12)
            checks += 1

    def test_length_mismatch(self):
        s = make_full(2)
        with pytest.raises(ValueError):
            lag_identity_check(s, [0.5, 0.5], 3, np.ones(3))


# ---------------------------------------------------------------------------
# properties over generated schedules

WINDOW_MESSAGE = re.compile(
    r"covering violated: indices \[([\d, ]*)\] absent from window "
    r"starting at n=(\d+) \(K=(\d+)\)$")


@st.composite
def explicit_schedules(draw):
    m = draw(st.integers(1, 6))
    K = draw(st.integers(1, 5))
    blocks = draw(st.lists(st.sets(st.integers(1, m), min_size=1),
                           min_size=1, max_size=6))
    return make_explicit(m, K, [sorted(b) for b in blocks])


quasicyclic_schedules = st.builds(
    make_quasicyclic_random, st.integers(1, 12), st.integers(1, 7),
    st.integers(0, 2**32 - 1))


def covering_by_window_scan(schedule, horizon):
    """First failing window (start, missing) found through last_activation."""
    K = schedule.K
    for n in range(K - 1, horizon):
        missing = []
        for i in range(1, schedule.m + 1):
            try:
                last_activation(schedule, i, n)
            except CoveringError:
                missing.append(i)
        if missing:
            return n - K + 1, missing
    return None


def reference_quasicyclic_blocks(m, K, seed, count):
    """The quasicyclic generator's first ``count`` blocks, built with Python
    sets and a last-activation list as the generator was first written."""
    rng = np.random.default_rng(seed)
    last = [-1] * m
    blocks = []
    for n in range(count):
        size = int(rng.integers(1, m + 1))
        picks = set(rng.choice(m, size=size, replace=False) + 1)
        picks.update(i for i, k in enumerate(last, 1) if k <= n - K)
        for i in picks:
            last[i - 1] = n
        blocks.append(frozenset(picks))
    return blocks


class TestGeneratorProperties:
    @given(st.integers(1, 40).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(1, m), st.integers(0, 500))))
    @example((7, 3, 2))    # the block {7, 1, 2} wraps past m
    @example((5, 5, 3))    # full activation
    @example((1, 1, 0))
    def test_cyclic_block_is_the_modulo_window(self, case):
        m, block_size, n = case
        start = (n * block_size) % m
        assert make_cyclic(m, block_size).block(n) == {
            (start + j) % m + 1 for j in range(block_size)}

    @settings(deadline=None)
    @given(st.integers(1, 12), st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_quasicyclic_matches_set_reference(self, m, K, seed):
        schedule = make_quasicyclic_random(m, K, seed)
        blocks = [schedule.block(n) for n in range(K + 30)]
        assert blocks == reference_quasicyclic_blocks(m, K, seed, K + 30)
        assert all(type(i) is int for blk in blocks for i in blk)


class TestCoveringProperties:
    @settings(deadline=None)
    @given(explicit_schedules(), st.integers(0, 20))
    def test_validate_covering_matches_window_scan(self, schedule, extra):
        horizon = schedule.K + extra
        assert (validate_covering(schedule, horizon)
                == covering_by_window_scan(schedule, horizon))

    @settings(deadline=None)
    @given(quasicyclic_schedules)
    def test_quasicyclic_covers(self, schedule):
        assert validate_covering(schedule, schedule.K + 60) is None

    @settings(deadline=None)
    @given(st.one_of(explicit_schedules(), quasicyclic_schedules))
    def test_record_activation_matches_last_activation(self, schedule):
        K = schedule.K
        last = np.full(schedule.m, -1)
        for n in range(K + 30):
            try:
                record_activation(last, schedule.block(n).idx, n, K)
            except CoveringError as exc:
                assert (covering_by_window_scan(schedule, n + 1)
                        == (exc.start, exc.missing))
                return
            if n >= K - 1:
                assert last.tolist() == [last_activation(schedule, i, n)
                                         for i in range(1, schedule.m + 1)]
        assert covering_by_window_scan(schedule, K + 30) is None

    @settings(deadline=None)
    @given(explicit_schedules())
    def test_error_attributes_match_message(self, schedule):
        K = schedule.K
        last = np.full(schedule.m, -1)
        try:
            for n in range(K + 12):
                record_activation(last, schedule.block(n).idx, n, K)
        except CoveringError as exc:
            match = WINDOW_MESSAGE.match(str(exc))
            assert match is not None
            assert exc.missing == [int(i) for i in match[1].split(", ")]
            assert exc.start == int(match[2]) and K == int(match[3])
