"""Tests for point-to-point messaging semantics."""

import numpy as np
import pytest

from repro.cluster import IDEAL, LAM_7_1_3, GroundTruth, NoiseModel, SimulatedCluster, random_cluster
from repro.mpi import DeadlockError, MessageLayer, payload_nbytes, run_ranks

KB = 1024


def quiet_cluster(n=4, seed=0, profile=IDEAL):
    return SimulatedCluster(
        random_cluster(n, seed=seed),
        ground_truth=GroundTruth.random(n, seed=seed),
        profile=profile,
        noise=NoiseModel.none(),
        seed=seed,
    )


def test_payload_nbytes_numpy_bytes_none():
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes(None) == 0
    with pytest.raises(TypeError):
        payload_nbytes({"not": "sized"})


def test_blocking_send_recv_delivers_payload():
    cluster = quiet_cluster()
    payload = np.arange(100, dtype=np.int64)

    def sender(comm):
        yield from comm.send(1, payload=payload, tag=5)

    def receiver(comm):
        env = yield from comm.recv(0, tag=5)
        return env

    results = run_ranks(cluster, {0: sender, 1: receiver})
    env = results[1].value
    assert np.array_equal(env.payload, payload)
    assert env.nbytes == payload.nbytes
    assert env.src == 0 and env.dst == 1 and env.tag == 5


def test_roundtrip_time_matches_lmo_formula():
    """i <-M-> j roundtrip = 2(C_i + L_ij + C_j + M(t_i + 1/beta + t_j))."""
    cluster = quiet_cluster()
    gt = cluster.ground_truth
    M = 50 * KB

    def initiator(comm):
        yield from comm.send(1, nbytes=M)
        yield from comm.recv(1)

    def responder(comm):
        yield from comm.recv(0)
        yield from comm.send(0, nbytes=M)

    results = run_ranks(cluster, {0: initiator, 1: responder})
    assert results[0].finish == pytest.approx(2 * gt.p2p_time(0, 1, M), rel=1e-12)


def test_roundtrip_empty_reply_matches_formula():
    """i -M-> j, empty reply: T = 2(C_i+L+C_j) + M(t_i+1/beta+t_j)."""
    cluster = quiet_cluster()
    gt = cluster.ground_truth
    M = 10 * KB

    def initiator(comm):
        yield from comm.sendrecv(1, nbytes=M, reply_nbytes=0)

    def responder(comm):
        yield from comm.recv(0)
        yield from comm.send(0, nbytes=0)

    results = run_ranks(cluster, {0: initiator, 1: responder})
    expected = gt.p2p_time(0, 1, M) + gt.p2p_time(1, 0, 0)
    assert results[0].finish == pytest.approx(expected, rel=1e-12)


def test_blocking_send_returns_at_local_completion():
    """The sender is free after its CPU stage, before remote delivery."""
    cluster = quiet_cluster()
    gt = cluster.ground_truth
    M = 20 * KB
    send_return_time = {}

    def sender(comm):
        yield from comm.send(1, nbytes=M)
        send_return_time["t"] = comm.sim.now

    def receiver(comm):
        yield from comm.recv(0)

    run_ranks(cluster, {0: sender, 1: receiver})
    assert send_return_time["t"] == pytest.approx(gt.send_cost(0, M), rel=1e-12)


def test_messages_do_not_overtake_within_src_dst_tag():
    cluster = quiet_cluster()
    order = []

    def sender(comm):
        for k in range(5):
            yield from comm.send(1, payload=bytes([k]), nbytes=1000, tag=2)

    def receiver(comm):
        for _k in range(5):
            env = yield from comm.recv(0, tag=2)
            order.append(env.payload[0])

    run_ranks(cluster, {0: sender, 1: receiver})
    assert order == [0, 1, 2, 3, 4]


def test_tags_separate_message_streams():
    cluster = quiet_cluster()

    def sender(comm):
        yield from comm.send(1, payload=b"a", nbytes=1, tag=1)
        yield from comm.send(1, payload=b"b", nbytes=1, tag=2)

    def receiver(comm):
        env2 = yield from comm.recv(0, tag=2)
        env1 = yield from comm.recv(0, tag=1)
        return (env1.payload, env2.payload)

    results = run_ranks(cluster, {0: sender, 1: receiver})
    assert results[1].value == (b"a", b"b")


def test_isend_irecv_overlap():
    """Two non-blocking exchanges in flight simultaneously complete."""
    cluster = quiet_cluster()

    def rank0(comm):
        s = comm.isend(1, nbytes=10 * KB, tag=1)
        r = comm.irecv(1, tag=2)
        yield s.sent
        env = yield r.wait()
        return env.nbytes

    def rank1(comm):
        s = comm.isend(0, nbytes=20 * KB, tag=2)
        r = comm.irecv(0, tag=1)
        yield s.sent
        env = yield r.wait()
        return env.nbytes

    results = run_ranks(cluster, {0: rank0, 1: rank1})
    assert results[0].value == 20 * KB
    assert results[1].value == 10 * KB


def test_request_test_reflects_completion():
    cluster = quiet_cluster()
    observed = {}

    def rank0(comm):
        req = comm.isend(1, nbytes=1000)
        observed["before"] = req.test()
        yield req.wait()
        observed["after"] = req.test()

    def rank1(comm):
        yield from comm.recv(0)

    run_ranks(cluster, {0: rank0, 1: rank1})
    assert observed == {"before": False, "after": True}


def test_self_send_rejected():
    cluster = quiet_cluster()
    layer = MessageLayer(cluster)
    comm = layer.rank_comm(0)
    with pytest.raises(ValueError):
        comm.isend(0, nbytes=1)
    with pytest.raises(ValueError):
        comm.irecv(0)


def test_rank_out_of_range_rejected():
    cluster = quiet_cluster()
    layer = MessageLayer(cluster)
    with pytest.raises(ValueError):
        layer.rank_comm(99)

    def noop(comm):
        return
        yield

    with pytest.raises(ValueError):
        run_ranks(cluster, {99: noop})


def test_unmatched_recv_raises_deadlock_error():
    cluster = quiet_cluster()

    def receiver(comm):
        yield from comm.recv(1, tag=9)  # nobody sends

    with pytest.raises(DeadlockError, match="rank"):
        run_ranks(cluster, {0: receiver})


def test_rendezvous_send_blocks_until_recv_posted():
    """Above the eager threshold the sender stalls until the receiver
    posts (LAM long protocol); below it the sender proceeds immediately."""
    n = 3
    gt = GroundTruth.random(n, seed=3)
    spec = random_cluster(n, seed=3)
    cluster = SimulatedCluster(spec, ground_truth=gt, profile=LAM_7_1_3,
                               noise=NoiseModel.none(), seed=3)
    big = 100 * KB  # rendezvous
    delay = 0.5
    send_done = {}

    def sender(comm):
        yield from comm.send(1, nbytes=big)
        send_done["t"] = comm.sim.now

    def late_receiver(comm):
        yield comm.sim.timeout(delay)
        yield from comm.recv(0)

    run_ranks(cluster, {0: sender, 1: late_receiver})
    assert send_done["t"] >= delay  # stalled until the recv appeared

    # Same exchange with an eager-size message: sender finishes early.
    small = 1 * KB
    cluster.reset()

    def sender_small(comm):
        yield from comm.send(1, nbytes=small)
        send_done["t"] = comm.sim.now

    run_ranks(cluster, {0: sender_small, 1: late_receiver})
    assert send_done["t"] < delay


def test_rendezvous_credit_banked_by_early_recv():
    """If the receive is already posted, a long send pays only the
    handshake round-trip, not an extra stall."""
    n = 3
    gt = GroundTruth.random(n, seed=4)
    cluster = SimulatedCluster(random_cluster(n, seed=4), ground_truth=gt,
                               profile=LAM_7_1_3, noise=NoiseModel.none(), seed=4)
    big = 100 * KB

    def sender(comm):
        yield comm.sim.timeout(0.01)  # receiver is certainly posted
        yield from comm.send(1, nbytes=big)

    def receiver(comm):
        yield from comm.recv(0)

    results = run_ranks(cluster, {0: sender, 1: receiver})
    gt_time = (
        0.01
        + 2 * gt.L[0, 1]  # handshake
        + LAM_7_1_3.sender_protocol_overhead(big)
        + gt.p2p_time(0, 1, big)
    )
    assert results[1].finish == pytest.approx(gt_time, rel=1e-9)


def test_any_source_receive_matches_first_arrival():
    from repro.mpi.comm import ANY_SOURCE

    cluster = quiet_cluster()
    got = []

    def sender(comm, delay, label):
        yield comm.sim.timeout(delay)
        yield from comm.send(3, payload=label, nbytes=100, tag=9)

    def receiver(comm):
        for _ in range(2):
            env = yield from comm.recv(ANY_SOURCE, tag=9)
            got.append((env.src, env.payload))

    run_ranks(cluster, {
        0: lambda c: sender(c, 0.01, b"slow"),
        1: lambda c: sender(c, 0.0, b"fast"),
        3: receiver,
    })
    assert got[0] == (1, b"fast")
    assert got[1] == (0, b"slow")


def test_any_tag_receive():
    from repro.mpi.comm import ANY_TAG

    cluster = quiet_cluster()

    def sender(comm):
        yield from comm.send(1, payload=b"x", nbytes=1, tag=42)

    def receiver(comm):
        env = yield from comm.recv(0, tag=ANY_TAG)
        return env.tag

    results = run_ranks(cluster, {0: sender, 1: receiver})
    assert results[1].value == 42


def test_wildcard_receive_with_rendezvous_message():
    """A wildcard receive cannot pre-grant the rendezvous credit, so the
    long send stays gated until a specific receive appears — mirroring
    MPI protocol-level matching.  With an eventual specific receive the
    exchange completes."""
    from repro.mpi.comm import ANY_SOURCE

    n = 3
    gt = GroundTruth.random(n, seed=44)
    cluster = SimulatedCluster(random_cluster(n, seed=44), ground_truth=gt,
                               profile=LAM_7_1_3, noise=NoiseModel.none(), seed=44)
    big = 100 * KB

    def sender(comm):
        yield from comm.send(1, nbytes=big, tag=5)

    def receiver(comm):
        # The wildcard receive alone would wait forever for a rendezvous
        # message; posting the specific receive releases the credit.
        wildcard = comm.irecv(ANY_SOURCE, tag=5)
        specific = comm.irecv(0, tag=5)
        env = yield from comm.wait(wildcard)
        del specific
        return env.nbytes

    results = run_ranks(cluster, {0: sender, 1: receiver})
    assert results[1].value == big


def test_probe_sees_pending_message_without_consuming():
    cluster = quiet_cluster()
    observed = {}

    def sender(comm):
        yield from comm.send(1, payload=b"hi", nbytes=2, tag=6)

    def receiver(comm):
        yield comm.sim.timeout(0.05)  # message certainly delivered
        observed["before"] = comm.probe(source=0, tag=6)
        observed["wrong_tag"] = comm.probe(tag=99)
        env = yield from comm.recv(0, tag=6)
        observed["after"] = comm.probe(source=0, tag=6)
        return env.payload

    results = run_ranks(cluster, {0: sender, 1: receiver})
    assert observed["before"] is not None
    assert observed["before"].nbytes == 2
    assert observed["wrong_tag"] is None
    assert observed["after"] is None
    assert results[1].value == b"hi"


@pytest.mark.parametrize("nbytes", [1 * KB, 128 * KB])
def test_finished_runs_leave_no_reference_cycles(nbytes):
    """Refcounting frees a finished run (processes, resource usages,
    mailbox gets), so the cyclic garbage collector stays idle while
    simulations run."""
    import gc

    from repro.mpi import run_collective

    def runs():
        for operation in ("scatter", "gather", "bcast"):
            run_collective(cluster, operation, "binomial", nbytes)
        cluster.reset()

    cluster = quiet_cluster(n=6, profile=LAM_7_1_3)
    runs()  # warm the memoized tree builders first
    gc.collect()
    gc.disable()
    try:
        runs()
        assert gc.collect() == 0
    finally:
        gc.enable()
