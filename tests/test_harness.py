import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from evomtl.errors import HarnessError
from evomtl.harness import (
    MAX_FRAME_BYTES, Job, JobResult, evaluate_local, local_evaluator,
    recv_frame, run_worker, send_frame, serve_coordinator,
)
from evomtl.genome import (
    GlobalHyper, genome_to_obj, hyper_to_obj, init_module_population,
)


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def make_payload(train_iters=0, n_tasks=2, n_classes=4, side=8, seed=9):
    pop = init_module_population(2, 2, np.random.default_rng(3))
    for g in pop.all_members():
        for gene in g.nodes.values():
            gene.kind = "conv2d"
            gene.kernel_size = 3
    hyper = GlobalHyper(k_modules=2, depth=2)
    return {
        "algorithm": "cm",
        "modules": [genome_to_obj(g) for g in pop.all_members()],
        "module_ids": [g.genome_id for g in pop.all_members()],
        "hyper": hyper_to_obj(hyper),
        "hyper_id": 0,
        "dataset": {"synth": {"seed": 1, "n_tasks": n_tasks,
                              "n_classes": n_classes, "image_side": side,
                              "noise": 0.1},
                    "split_seed": 2},
        "seed": seed,
        "train_iters": train_iters,
    }


def test_local_untrained_fitness_near_chance():
    # 0 train iters on balanced 4-class tasks: accuracy ~ 1/4
    accs = []
    for seed in range(6):
        result = evaluate_local(Job(seed, make_payload(seed=seed)))
        assert result.status == "ok"
        accs.append(result.fitness)
    assert abs(np.mean(accs) - 0.25) < 0.12


def test_local_malformed_payload():
    result = evaluate_local(Job(0, {"algorithm": "wat"}))
    assert result.status == "failed"
    assert result.message


def test_local_deterministic():
    job = Job(7, make_payload(train_iters=20))
    a = evaluate_local(job)
    b = evaluate_local(job)
    assert a.status == b.status == "ok"
    assert a.fitness == b.fitness  # bit-equal
    assert a.per_task == b.per_task


def test_single_worker_serial_execution():
    port = free_port()
    addr = f"127.0.0.1:{port}"
    jobs = [Job(i, make_payload(seed=i), deadline_s=60) for i in range(3)]
    results_box = {}

    def coordinator():
        results_box["results"] = serve_coordinator(addr, jobs,
                                                   global_timeout_s=60)

    coord = threading.Thread(target=coordinator)
    coord.start()
    time.sleep(0.2)
    worker = threading.Thread(
        target=run_worker, kwargs=dict(coordinator_addr=addr, worker_id="w1"))
    worker.start()
    coord.join(timeout=60)
    worker.join(timeout=10)
    results = results_box["results"]
    assert len(results) == 3
    assert [r.job_id for r in results] == [0, 1, 2]
    assert all(r.status == "ok" for r in results)
    assert all(r.worker_id == "w1" for r in results)


def test_distributed_bit_equals_local():
    port = free_port()
    addr = f"127.0.0.1:{port}"
    jobs = [Job(i, make_payload(train_iters=15, seed=40 + i)) for i in range(2)]
    local = {r.job_id: r for r in local_evaluator(jobs)}
    results_box = {}

    def coordinator():
        results_box["results"] = serve_coordinator(addr, jobs,
                                                   global_timeout_s=60)

    coord = threading.Thread(target=coordinator)
    coord.start()
    time.sleep(0.2)
    worker = threading.Thread(
        target=run_worker, kwargs=dict(coordinator_addr=addr, worker_id="w1"))
    worker.start()
    coord.join(timeout=60)
    worker.join(timeout=10)
    for r in results_box["results"]:
        assert r.status == "ok"
        assert r.fitness == local[r.job_id].fitness
        assert r.per_task == local[r.job_id].per_task


def test_worker_killed_mid_job_reassigned():
    port = free_port()
    addr = f"127.0.0.1:{port}"
    # heavy enough that the first worker dies mid-evaluation
    slow = make_payload(train_iters=800, n_tasks=3, side=8, seed=1)
    jobs = [Job(0, slow, deadline_s=300)]
    results_box = {}

    def coordinator():
        results_box["results"] = serve_coordinator(addr, jobs,
                                                   global_timeout_s=120)

    coord = threading.Thread(target=coordinator)
    coord.start()
    time.sleep(0.2)
    victim = subprocess.Popen(
        [sys.executable, "-c",
         f"from evomtl.harness import run_worker; run_worker({addr!r}, 'victim')"])
    time.sleep(2.0)
    victim.kill()
    victim.wait()
    assert "results" not in results_box  # job still unresolved
    rescuer = threading.Thread(
        target=run_worker, kwargs=dict(coordinator_addr=addr, worker_id="rescue"))
    rescuer.start()
    coord.join(timeout=120)
    rescuer.join(timeout=10)
    results = results_box["results"]
    assert len(results) == 1  # exactly one result despite the retry
    assert results[0].status == "ok"
    assert results[0].worker_id == "rescue"


def test_duplicate_result_discarded():
    # first-wins: a duplicate for the same job_id must not overwrite
    from evomtl.harness import _CoordinatorState
    state = _CoordinatorState([Job(0, {})])
    first = JobResult(0, "ok", fitness=0.5, worker_id="a")
    dup = JobResult(0, "ok", fitness=0.9, worker_id="b")
    with state.lock:
        state.results.setdefault(first.job_id, first)
        state.results.setdefault(dup.job_id, dup)
    assert state.results[0].worker_id == "a"
    assert state.results[0].fitness == 0.5


def test_no_worker_timeout():
    port = free_port()
    addr = f"127.0.0.1:{port}"
    with pytest.raises(HarnessError):
        serve_coordinator(addr, [Job(0, make_payload())], global_timeout_s=1.0)


def _fake_worker(port, work_s, heartbeat_s):
    """Say hello, take one job, heartbeat every `heartbeat_s` (never, if
    None) and return an ok result after `work_s`."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    try:
        send_frame(sock, {"kind": "hello", "worker_id": "slow"})
        job = recv_frame(sock)
        t_end = time.monotonic() + work_s
        while time.monotonic() < t_end:
            time.sleep(heartbeat_s or 0.05)
            if heartbeat_s:
                send_frame(sock, {"kind": "heartbeat", "worker_id": "slow"})
        result = JobResult(job["job_id"], "ok", fitness=0.5, worker_id="slow")
        send_frame(sock, {"kind": "result", "result": result.to_obj()})
        recv_frame(sock)  # shutdown
    except OSError:
        pass
    finally:
        sock.close()


@pytest.mark.parametrize("heartbeat_s", [0.2, None],
                         ids=["heartbeating", "silent"])
def test_global_timeout_counts_from_the_last_progress(heartbeat_s):
    # the run takes twice the global timeout: a heartbeating worker keeps
    # it alive, a silent one does not
    port = free_port()
    addr = f"127.0.0.1:{port}"
    box = {}

    def coordinator():
        try:
            box["results"] = serve_coordinator(
                addr, [Job(0, {}, deadline_s=60)], global_timeout_s=0.8)
        except HarnessError as e:
            box["error"] = e

    coord = threading.Thread(target=coordinator)
    coord.start()
    time.sleep(0.2)
    worker = threading.Thread(target=_fake_worker, args=(port, 1.6, heartbeat_s),
                              daemon=True)
    worker.start()
    coord.join(timeout=30)
    worker.join(timeout=30)
    assert not coord.is_alive() and not worker.is_alive()
    if heartbeat_s:
        assert "error" not in box
        assert [(r.status, r.fitness) for r in box["results"]] == [("ok", 0.5)]
    else:
        assert "results" not in box and "error" in box


def test_cmtr_payload_at_side_8_with_kernel_3_modules():
    # the initial routing chain must leave the second module a map its
    # kernel-3 genes fit: no adapter where the rest would not assemble
    payload = make_payload(side=8)
    payload["algorithm"] = "cmtr"
    payload["ctr"] = {"meta_iters": 1, "m_iters": 2, "alpha": 0.1, "lr": 0.01}
    result = evaluate_local(Job(0, payload))
    assert result.status == "ok", result.message


def test_worker_requires_address(monkeypatch):
    monkeypatch.delenv("EVOMTL_COORDINATOR_ADDR", raising=False)
    with pytest.raises(HarnessError):
        run_worker(None)


def test_worker_gives_up_backoff():
    # nothing listening: the worker retries with backoff, then gives up
    t0 = time.monotonic()
    code = run_worker("127.0.0.1:1", give_up_after_s=2.0)
    assert code == 1
    assert time.monotonic() - t0 >= 1.0


def test_deadline_expiry_reassigns():
    # a worker that accepts the job and then stalls: the deadline passes,
    # the job is requeued, and a healthy worker completes it
    port = free_port()
    addr = f"127.0.0.1:{port}"
    jobs = [Job(0, make_payload(train_iters=0), deadline_s=1.5)]
    results_box = {}

    def coordinator():
        results_box["results"] = serve_coordinator(addr, jobs,
                                                   global_timeout_s=60)

    coord = threading.Thread(target=coordinator)
    coord.start()
    time.sleep(0.2)

    def stalling_client():
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        try:
            send_frame(sock, {"kind": "hello", "worker_id": "stall"})
            recv_frame(sock)  # take the job
            # keep heartbeating so only the deadline (not liveness) fires
            for _ in range(40):
                time.sleep(0.25)
                send_frame(sock, {"kind": "heartbeat", "worker_id": "stall"})
        except OSError:
            pass
        finally:
            sock.close()

    staller = threading.Thread(target=stalling_client, daemon=True)
    staller.start()
    time.sleep(2.0)  # past the deadline
    rescuer = threading.Thread(
        target=run_worker, kwargs=dict(coordinator_addr=addr, worker_id="ok"))
    rescuer.start()
    coord.join(timeout=60)
    rescuer.join(timeout=10)
    results = results_box["results"]
    assert len(results) == 1
    assert results[0].status == "ok"
    assert results[0].worker_id == "ok"


def test_recv_frame_rejects_oversized_header_without_waiting():
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(5.0)
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"{}")
        t0 = time.monotonic()
        assert recv_frame(b) is None
        assert time.monotonic() - t0 < 1.0  # did not wait for the body


def test_recv_frame_truncated_body_is_none():
    a, b = socket.socketpair()
    with b:
        b.settimeout(5.0)
        with a:
            a.sendall(struct.pack(">I", 100) + b'{"kind": "res')
        assert recv_frame(b) is None


def test_recv_frame_reassembles_a_large_frame():
    msg = {"kind": "result", "blob": "x" * (1 << 20)}
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(10.0)
        sender = threading.Thread(target=send_frame, args=(a, msg))
        sender.start()
        assert recv_frame(b) == msg
        sender.join(timeout=10)
        assert not sender.is_alive()


@pytest.mark.parametrize("body", [b"[1]", b"{x"])
def test_recv_frame_non_object_body_is_none(body):
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(5.0)
        a.sendall(struct.pack(">I", len(body)) + body)
        assert recv_frame(b) is None


def test_worker_survives_a_garbage_frame_and_reconnects():
    # a fake coordinator answers the first hello with a non-object frame
    # and the second with shutdown: the worker drops the connection,
    # reconnects and exits cleanly
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(2)
    server.settimeout(10.0)
    port = server.getsockname()[1]
    hellos = []

    def coordinator():
        with server:
            for reply in (b"[1]", b'{"kind":"shutdown"}'):
                conn, _ = server.accept()
                with conn:
                    conn.settimeout(10.0)
                    hellos.append(recv_frame(conn))
                    conn.sendall(struct.pack(">I", len(reply)) + reply)
                    conn.recv(1)  # wait for the worker to hang up

    fake = threading.Thread(target=coordinator)
    fake.start()
    code = run_worker(f"127.0.0.1:{port}", worker_id="w",
                      give_up_after_s=20.0)
    fake.join(timeout=10)
    assert not fake.is_alive()
    assert code == 0
    assert [h["kind"] for h in hellos] == ["hello", "hello"]


@pytest.mark.parametrize("bad_result", [
    {"kind": "result"},  # no result at all
    {"kind": "result",  # well formed, but for a job never dispatched
     "result": JobResult(999, "ok", fitness=1.0).to_obj()},
], ids=["missing", "other-job"])
def test_coordinator_drops_a_worker_with_a_bad_result(bad_result):
    # a fake worker answers its job with a bad result frame: the
    # coordinator drops it and requeues the job, and an honest worker
    # finishes it; one result per job comes back
    port = free_port()
    addr = f"127.0.0.1:{port}"
    jobs = [Job(1, make_payload(train_iters=0), deadline_s=60)]
    results_box = {}

    def coordinator():
        results_box["results"] = serve_coordinator(addr, jobs,
                                                   global_timeout_s=60)

    coord = threading.Thread(target=coordinator)
    coord.start()
    time.sleep(0.2)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        send_frame(sock, {"kind": "hello", "worker_id": "liar"})
        assert recv_frame(sock)["job_id"] == 1
        send_frame(sock, bad_result)
        assert recv_frame(sock) is None  # dropped, no shutdown sent
    honest = threading.Thread(
        target=run_worker, kwargs=dict(coordinator_addr=addr,
                                       worker_id="honest"))
    honest.start()
    coord.join(timeout=60)
    honest.join(timeout=10)
    assert not coord.is_alive() and not honest.is_alive()
    results = results_box["results"]
    assert [(r.job_id, r.status, r.worker_id) for r in results] == [
        (1, "ok", "honest")]


def test_one_deadline_default_for_jobs_plans_configs_and_workers(monkeypatch):
    # a job frame without deadline_s gets the same default on the worker
    # as a Job built without one, a GenerationPlan and the run config
    from evomtl import harness
    from evomtl.coevolve import GenerationPlan
    from evomtl.config import ExperimentConfig
    seen = []
    monkeypatch.setattr(harness, "evaluate_local", lambda job, worker_id: (
        seen.append(job) or JobResult(job.job_id, "ok", fitness=0.5)))
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    server.settimeout(10.0)
    port = server.getsockname()[1]

    def coordinator():
        with server:
            conn, _ = server.accept()
            with conn:
                conn.settimeout(10.0)
                recv_frame(conn)  # hello
                send_frame(conn, {"kind": "job", "job_id": 3, "payload": {}})
                while recv_frame(conn)["kind"] != "result":
                    pass  # heartbeats
                send_frame(conn, {"kind": "shutdown"})

    fake = threading.Thread(target=coordinator)
    fake.start()
    code = run_worker(f"127.0.0.1:{port}", worker_id="w", give_up_after_s=20.0)
    fake.join(timeout=10)
    assert not fake.is_alive() and code == 0
    assert [j.job_id for j in seen] == [3]
    assert seen[0].deadline_s == Job(0, {}).deadline_s == \
        GenerationPlan("cm").deadline_s == ExperimentConfig().deadline_s
