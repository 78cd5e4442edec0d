"""Exact verification of Table 1 and Table 2, plus lock manager behaviour."""

import threading
import time

import pytest

from repro.errors import DeadlockError, LockTimeoutError, TransactionError
from repro.txn import LockManager, LockMode, compatible, convert

S, I, SI, X, T, U, O = (
    LockMode.S,
    LockMode.I,
    LockMode.SI,
    LockMode.X,
    LockMode.T,
    LockMode.U,
    LockMode.O,
)

MODES = [S, I, SI, X, T, U, O]

# Table 1 of the paper, verbatim: rows = requested, cols = granted.
PAPER_COMPATIBILITY = [
    # S      I      SI     X      T      U      O
    [True, False, False, False, True, True, False],  # S
    [False, True, False, False, True, True, False],  # I
    [False, False, False, False, True, True, False],  # SI
    [False, False, False, False, False, True, False],  # X
    [True, True, True, False, True, True, False],  # T
    [True, True, True, True, True, True, False],  # U
    [False, False, False, False, False, False, False],  # O
]

# Table 2 of the paper, verbatim.
PAPER_CONVERSION = [
    # S   I   SI  X   T   U   O
    [S, SI, SI, X, S, S, O],  # S
    [SI, I, SI, X, I, I, O],  # I
    [SI, SI, SI, X, SI, SI, O],  # SI
    [X, X, X, X, X, X, O],  # X
    [S, I, SI, X, T, T, O],  # T
    [S, I, SI, X, T, U, O],  # U
    [O, O, O, O, O, O, O],  # O
]


class TestTable1:
    @pytest.mark.parametrize("row", range(7))
    @pytest.mark.parametrize("col", range(7))
    def test_every_cell(self, row, col):
        assert compatible(MODES[row], MODES[col]) is PAPER_COMPATIBILITY[row][col]

    def test_insert_self_compatible(self):
        # "enabling multiple inserts and bulk loads to occur
        # simultaneously which is critical to maintain high ingest rates"
        assert compatible(I, I)

    def test_usage_compatible_with_all_but_owner(self):
        for granted in MODES:
            assert compatible(U, granted) is (granted is not O)

    def test_owner_excludes_everything(self):
        for granted in MODES:
            assert not compatible(O, granted)
            assert not compatible(granted, O)


class TestTable2:
    @pytest.mark.parametrize("row", range(7))
    @pytest.mark.parametrize("col", range(7))
    def test_every_cell(self, row, col):
        assert convert(MODES[row], MODES[col]) is PAPER_CONVERSION[row][col]

    def test_read_plus_insert_is_shared_insert(self):
        assert convert(S, I) is SI
        assert convert(I, S) is SI


class TestLockManager:
    def test_grant_and_hold(self):
        manager = LockManager()
        assert manager.acquire(1, "t", S) is S
        assert manager.held(1, "t") is S

    def test_concurrent_inserts_allowed(self):
        manager = LockManager()
        manager.acquire(1, "t", I)
        manager.acquire(2, "t", I)
        assert manager.holders_of("t") == {1: I, 2: I}

    def test_exclusive_blocks_shared(self):
        manager = LockManager()
        manager.acquire(1, "t", X)
        with pytest.raises(LockTimeoutError):
            manager.acquire(2, "t", S)

    def test_tuple_mover_concurrent_with_writers(self):
        manager = LockManager()
        manager.acquire(1, "t", I)
        manager.acquire(99, "t", T)  # tuple mover
        manager.acquire(99, "t", U)

    def test_conversion_on_reacquire(self):
        manager = LockManager()
        manager.acquire(1, "t", I)
        assert manager.acquire(1, "t", S) is SI

    def test_conversion_checked_against_others(self):
        manager = LockManager()
        manager.acquire(1, "t", I)
        manager.acquire(2, "t", I)  # two concurrent loaders
        # txn 1 now wants to read as well -> SI, but SI is incompatible
        # with txn 2's I.
        with pytest.raises(LockTimeoutError):
            manager.acquire(1, "t", S)

    def test_release(self):
        manager = LockManager()
        manager.acquire(1, "t", X)
        manager.release(1, "t")
        manager.acquire(2, "t", S)  # now grantable

    def test_release_unheld_raises(self):
        manager = LockManager()
        with pytest.raises(TransactionError):
            manager.release(1, "t")

    def test_release_all(self):
        manager = LockManager()
        manager.acquire(1, "a", X)
        manager.acquire(1, "b", S)
        manager.release_all(1)
        assert manager.held(1, "a") is None
        assert manager.held(1, "b") is None

    def test_locks_are_per_object(self):
        manager = LockManager()
        manager.acquire(1, "a", X)
        manager.acquire(2, "b", X)  # different table: fine

    def test_granted_is_a_sorted_snapshot(self):
        manager = LockManager()
        manager.acquire(2, "b", X)
        manager.acquire(2, "a", I)
        manager.acquire(1, "a", I)
        assert manager.granted() == [
            ("a", 1, "I"), ("a", 2, "I"), ("b", 2, "X"),
        ]
        manager.release_all(2)
        assert manager.granted() == [("a", 1, "I")]

    def test_matrix_exports_full(self):
        assert len(LockManager.compatibility_matrix()) == 49
        assert len(LockManager.conversion_matrix()) == 49
        assert LockManager.modes() == ["S", "I", "SI", "X", "T", "U", "O"]


def park(manager, txn_id, obj, mode, results, timeout=5.0):
    """Block ``txn_id`` on ``obj`` from a worker thread; returns it."""

    def run():
        try:
            results[txn_id] = manager.acquire(
                txn_id, obj, mode, block=True, timeout=timeout
            )
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            results[txn_id] = exc

    worker = threading.Thread(target=run)
    worker.start()
    deadline = time.monotonic() + 5.0
    while txn_id not in manager.waiting():
        if time.monotonic() > deadline or txn_id in results:
            break
        time.sleep(0.001)
    return worker


class TestDeadlockDetection:
    def test_two_party_cycle(self):
        manager = LockManager()
        manager.acquire(1, "a", X)
        manager.acquire(2, "b", X)
        results = {}
        worker = park(manager, 2, "a", X, results)
        # txn 1's request for "b" closes the cycle 1 -> 2 -> 1 and is
        # the deterministic victim; txn 2 stays parked.
        with pytest.raises(DeadlockError) as exc_info:
            manager.acquire(1, "b", X)
        assert exc_info.value.cycle[0] == 1
        assert set(exc_info.value.cycle) == {1, 2}
        assert "txn 1" in str(exc_info.value)
        assert "txn 2" in str(exc_info.value)
        # the victim rolls back; the survivor's parked request is granted.
        manager.release_all(1)
        worker.join(timeout=5.0)
        assert results[2] is X

    def test_three_party_cycle(self):
        manager = LockManager()
        manager.acquire(1, "a", X)
        manager.acquire(2, "b", X)
        manager.acquire(3, "c", X)
        results = {}
        worker2 = park(manager, 2, "a", X, results)
        worker3 = park(manager, 3, "b", X, results)
        with pytest.raises(DeadlockError) as exc_info:
            manager.acquire(1, "c", X)
        assert exc_info.value.cycle[0] == 1
        assert set(exc_info.value.cycle) == {1, 2, 3}
        # the victim's rollback unblocks txn 2; txn 3 follows once txn 2
        # commits and releases in turn.
        manager.release_all(1)
        worker2.join(timeout=5.0)
        assert results[2] is X
        manager.release_all(2)
        worker3.join(timeout=5.0)
        assert results[3] is X

    def test_usage_to_owner_upgrade_deadlock(self):
        # both hold U; each requests O, which U blocks — the classic
        # symmetric upgrade deadlock Table 2 makes possible.
        manager = LockManager()
        manager.acquire(1, "t", U)
        manager.acquire(2, "t", U)
        results = {}
        worker = park(manager, 2, "t", O, results)
        with pytest.raises(DeadlockError) as exc_info:
            manager.acquire(1, "t", O)
        assert set(exc_info.value.cycle) == {1, 2}
        assert manager.held(1, "t") is U  # failed upgrade left mode intact
        manager.release_all(1)
        worker.join(timeout=5.0)
        assert results[2] is O

    def test_deadlock_beats_timeout_without_blocking(self):
        # the cycle check runs before the block/timeout decision, so a
        # non-blocking request that closes a cycle reports the deadlock
        # rather than a generic timeout.
        manager = LockManager()
        manager.acquire(1, "a", X)
        manager.acquire(2, "b", X)
        results = {}
        worker = park(manager, 2, "a", X, results)
        with pytest.raises(DeadlockError):
            manager.acquire(1, "b", X, block=False)
        manager.release_all(1)
        worker.join(timeout=5.0)
        assert results[2] is X

    def test_blocking_wait_times_out(self):
        manager = LockManager()
        manager.acquire(1, "a", X)
        with pytest.raises(LockTimeoutError, match="txn 1 holds X"):
            manager.acquire(2, "a", S, block=True, timeout=0.05)
        assert manager.waiting() == {}

    def test_blocking_wait_granted_on_release(self):
        manager = LockManager()
        manager.acquire(1, "a", X)
        results = {}
        worker = park(manager, 2, "a", S, results)
        assert manager.waiting() == {2: ("a", "S")}
        manager.release(1, "a")
        worker.join(timeout=5.0)
        assert results[2] is S
        assert manager.waiting() == {}

    def test_no_false_deadlock_on_plain_contention(self):
        manager = LockManager()
        before = METRICS_DEADLOCKS()
        manager.acquire(1, "a", X)
        with pytest.raises(LockTimeoutError):
            manager.acquire(2, "a", X)
        assert METRICS_DEADLOCKS() == before

    def test_deadlock_bumps_metric(self):
        manager = LockManager()
        before = METRICS_DEADLOCKS()
        manager.acquire(1, "a", X)
        manager.acquire(2, "b", X)
        results = {}
        worker = park(manager, 2, "a", X, results)
        with pytest.raises(DeadlockError):
            manager.acquire(1, "b", X)
        assert METRICS_DEADLOCKS() == before + 1
        manager.release_all(1)
        worker.join(timeout=5.0)


def METRICS_DEADLOCKS():
    from repro.monitor import METRICS

    return METRICS.counters_with_prefix("locks.deadlocks").get(
        "locks.deadlocks", 0
    )


class TestWaiterCleanup:
    """A waiter that leaves by timeout or cancellation must take its
    waits-for edges and CV registration with it — otherwise a later
    deadlock search can pick a transaction that is no longer waiting."""

    def test_timed_out_waiter_cannot_become_deadlock_victim(self):
        # txn 2 times out waiting for "t" (held by txn 1), then txn 1
        # requests "u" (held by txn 2).  Were txn 2's stale wait edge
        # still in the graph, 1→u→2→t→1 would read as a cycle and txn 1
        # would be spuriously killed; the real outcome is a plain
        # timeout because nobody is actually waiting on txn 1.
        manager = LockManager()
        manager.acquire(1, "t", X)
        manager.acquire(2, "u", X)
        with pytest.raises(LockTimeoutError):
            manager.acquire(2, "t", S, block=True, timeout=0.05)
        assert manager.waiting() == {}
        with pytest.raises(LockTimeoutError):
            manager.acquire(1, "u", S, block=True, timeout=0.05)

    def test_cancelled_waiter_deregisters(self):
        from repro.errors import QueryCancelledError

        manager = LockManager()
        manager.acquire(1, "t", X)

        calls = {"n": 0}

        def cancel():
            calls["n"] += 1
            if calls["n"] > 1:  # let the first registration happen
                raise QueryCancelledError("client cancelled")

        with pytest.raises(QueryCancelledError):
            manager.acquire(
                2, "t", S, block=True, timeout=5.0, cancel=cancel
            )
        assert manager.waiting() == {}
        # the lock table is undisturbed: txn 1 still holds X, and a
        # third party sees ordinary contention, not a phantom waiter.
        with pytest.raises(LockTimeoutError):
            manager.acquire(3, "t", S, block=False)

    def test_cancelled_waiter_cannot_become_deadlock_victim(self):
        from repro.errors import QueryCancelledError

        manager = LockManager()
        manager.acquire(1, "t", X)
        manager.acquire(2, "u", X)

        def cancel():
            # runs under LockManager._cond, which is not reentrant:
            # read the table, do not call back into waiting().
            if 2 in manager._waiting:
                raise QueryCancelledError("client cancelled")

        with pytest.raises(QueryCancelledError):
            manager.acquire(2, "t", S, block=True, timeout=5.0, cancel=cancel)
        with pytest.raises(LockTimeoutError):
            manager.acquire(1, "u", S, block=True, timeout=0.05)

    def test_wake_waiters_prods_parked_threads(self):
        # wake_waiters lets an external cancel flag be observed promptly
        # instead of at the next wake slice.
        from repro.errors import QueryCancelledError

        manager = LockManager()
        manager.acquire(1, "t", X)
        flag = {"cancelled": False}

        def cancel():
            if flag["cancelled"]:
                raise QueryCancelledError("flagged")

        results = {}

        def run():
            try:
                results[2] = manager.acquire(
                    2, "t", S, block=True, timeout=30.0, cancel=cancel
                )
            except Exception as exc:  # noqa: BLE001 - surfaced by the test
                results[2] = exc

        worker = threading.Thread(target=run)
        worker.start()
        deadline = time.monotonic() + 5.0
        while 2 not in manager.waiting():
            if time.monotonic() > deadline:
                raise AssertionError("waiter never parked")
            time.sleep(0.001)
        flag["cancelled"] = True
        manager.wake_waiters()
        worker.join(timeout=5.0)
        assert isinstance(results[2], QueryCancelledError)
        assert manager.waiting() == {}


class TestMatrixInternalConsistency:
    def test_compatibility_is_symmetric(self):
        # Table 1 is symmetric in the paper; verify our copy is too.
        for a in MODES:
            for b in MODES:
                assert compatible(a, b) == compatible(b, a)

    def test_conversion_result_at_least_as_strong(self):
        # Converting never yields a mode compatible with something the
        # original pair was not both compatible with.
        for requested in MODES:
            for granted in MODES:
                result = convert(requested, granted)
                for other in MODES:
                    if not compatible(granted, other):
                        assert not compatible(result, other), (
                            requested,
                            granted,
                            other,
                        )

    def test_conversion_idempotent_on_diagonal(self):
        for mode in MODES:
            assert convert(mode, mode) is mode


class TestConversionEdgeCases:
    """Audit of Table 2 corner cases through the lock manager.

    The interesting rows are O (DDL upgrade paths) and the tuple-mover
    pair T/U, where the converted mode is *not* simply the stronger of
    the two enum values.
    """

    def test_owner_absorbs_every_mode(self):
        # Requesting O while holding anything, or anything while holding
        # O, always lands on O — DDL ownership is absorbing.
        for mode in MODES:
            assert convert(O, mode) is O
            assert convert(mode, O) is O

    def test_usage_to_owner_upgrade_single_holder(self):
        # The tuple mover holds U; a DDL request by the same transaction
        # upgrades in place because no one else holds the table.
        manager = LockManager()
        assert manager.acquire(1, "t", U) is U
        assert manager.acquire(1, "t", O) is O
        assert manager.held(1, "t") is O

    def test_usage_to_owner_upgrade_blocked_by_concurrent_holder(self):
        # U is compatible with everything but O, so two transactions can
        # hold U together — but then neither can upgrade to O, and the
        # failed upgrade must leave the held mode untouched.
        manager = LockManager()
        manager.acquire(1, "t", U)
        manager.acquire(2, "t", U)
        with pytest.raises(LockTimeoutError):
            manager.acquire(1, "t", O)
        assert manager.held(1, "t") is U
        assert manager.held(2, "t") is U

    def test_failed_upgrade_to_exclusive_leaves_shared(self):
        manager = LockManager()
        manager.acquire(1, "t", S)
        manager.acquire(2, "t", S)
        with pytest.raises(LockTimeoutError):
            manager.acquire(1, "t", X)  # convert(X, S) = X, blocked by txn 2
        assert manager.held(1, "t") is S

    def test_tuple_mover_modes_convert_to_t(self):
        # T + U in either order yields T, not U: the short tuple-mover
        # mode dominates the long-held usage mode.
        assert convert(T, U) is T
        assert convert(U, T) is T
        manager = LockManager()
        manager.acquire(1, "t", U)
        assert manager.acquire(1, "t", T) is T

    def test_conversion_is_commutative(self):
        # Table 2 is symmetric: the combined mode does not depend on
        # which of the two modes was requested first.
        for a in MODES:
            for b in MODES:
                assert convert(a, b) is convert(b, a), (a, b)

    def test_conversion_strengthens_requested_side_too(self):
        # The converted mode is at least as strong as the *requested*
        # mode as well (TestMatrixInternalConsistency covers the granted
        # side): anything incompatible with the request stays
        # incompatible with the result.
        for requested in MODES:
            for granted in MODES:
                result = convert(requested, granted)
                for other in MODES:
                    if not compatible(requested, other):
                        assert not compatible(result, other), (
                            requested,
                            granted,
                            other,
                        )
