import dataclasses
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from evomtl import harness
from evomtl.dataset import DirRef, SynthParams, SynthRef
from evomtl.errors import HarnessError, ParseError
from evomtl.harness import (
    MAX_FRAME_BYTES, CmPayload, CmtrPayload, Coordinator, CtrSettings, Job,
    JobResult, distributed_evaluator, evaluate_local, local_evaluator,
    recv_frame, run_worker, send_frame, serve_coordinator,
)
from evomtl.genome import GlobalHyper, init_module_population
from evomtl.serialize import to_obj
from helpers import pgm_tree


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
    return CmPayload(
        modules=pop.all_members(),
        module_ids=[g.genome_id for g in pop.all_members()],
        hyper=hyper, hyper_id=0,
        dataset=SynthRef(SynthParams(1, n_tasks, n_classes, side, 0.1),
                         split_seed=2),
        seed=seed, train_iters=train_iters)


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


def _mistyped(path, value):
    """The JSON form of `make_payload()` with the field at the dotted
    `path` set to `value`."""
    obj = to_obj(make_payload())
    *parents, last = path.split(".")
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    return obj


@pytest.mark.parametrize("path, value", [
    ("seed", "9"),
    ("train_iters", 3.7),
    ("module_ids", "ab"),
    ("dataset.split_seed", "2"),
    ("dataset.synth.seed", True),
    ("dataset.synth.n_tasks", "2"),
    ("dataset.synth.n_classes", 3.2),
    ("dataset.synth.noise", "0.1"),
])
def test_a_mistyped_payload_field_is_a_failed_result_naming_it(path, value):
    # int() or float() would read each of these as a number: the codec
    # refuses them, naming the field
    result = evaluate_local(Job(0, _mistyped(path, value)))
    assert result.status == "failed"
    assert f"payload.{path}" in result.message


def test_each_payload_kind_round_trips_through_its_json():
    from evomtl.genome import init_blueprint_population
    from evomtl.harness import CmsrPayload, Payload
    from evomtl.serialize import canon_dumps, canon_loads, from_obj
    cm = make_payload()
    bp = init_blueprint_population(1, [1, 2], np.random.default_rng(4))
    cmsr = CmsrPayload(**vars(cm), blueprint=bp.all_members()[0],
                       blueprint_id=0, species_map={1: 0, 2: 1})
    cmtr = CmtrPayload(**vars(cm), ctr=CtrSettings(1, 2, 0.1))
    for payload, algorithm in ((cm, "cm"), (cmsr, "cmsr"), (cmtr, "cmtr")):
        obj = canon_loads(canon_dumps(to_obj(payload)))
        assert obj["algorithm"] == algorithm
        assert obj["modules"][0]["kind"] == "module"
        back = from_obj(Payload, obj, "payload")
        assert type(back) is type(payload) and back == payload
        assert from_obj(Payload, payload, "payload") is payload
    obj = to_obj(cmsr)
    obj["algorithm"] = "cm"  # a blueprint has no place in a cm payload
    with pytest.raises(ParseError, match="blueprint"):
        from_obj(Payload, obj, "payload")


def test_a_cmtr_payload_with_the_retired_lr_key_decodes():
    # older job frames and best_network.json files carry "lr": null
    from evomtl.harness import BestNetwork, Payload
    from evomtl.serialize import from_obj
    cmtr = CmtrPayload(**vars(make_payload()), ctr=CtrSettings(1, 2, 0.1))
    obj = to_obj(cmtr)
    assert "lr" not in obj["ctr"]
    obj["ctr"]["lr"] = None
    assert from_obj(Payload, obj, "payload") == cmtr
    best = {"kind": "best_network", "payload": obj, "report": {}}
    assert from_obj(BestNetwork, best, "best").payload == cmtr


@pytest.mark.parametrize("iters, schedule, points", [
    (6, {"lr_decay": True, "snapshot_every": 3}, 2),  # after 3 and 6
    (7, {"lr_decay": True, "snapshot_every": 3}, 3),  # after 3, 6 and 7
    (5, {}, 1),  # a short job: after its last iteration
    (0, {}, 1),  # an untrained one
])
def test_evaluate_payload_takes_its_scores_from_training(monkeypatch, iters,
                                                         schedule, points):
    # each snapshot point is scored once, and nothing scores the model
    # again; `training.accuracy` scores one task's split, whichever module
    # named `evaluate_accuracy`
    from evomtl import training
    calls = []
    real = training.accuracy
    monkeypatch.setattr(training, "accuracy",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    fitness, per_task, model, spec = harness.evaluate_payload(
        make_payload(train_iters=iters), **schedule)
    monkeypatch.undo()
    assert len(calls) == points * len(spec.tasks)
    assert training.evaluate_accuracy(model, spec, "val") == (per_task,
                                                              fitness)


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
        with Coordinator(addr) as c:
            results_box["results"] = serve_coordinator(
                c, jobs, global_timeout_s=60)

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
        with Coordinator(addr) as c:
            results_box["results"] = serve_coordinator(
                c, jobs, global_timeout_s=60)

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
    # heavy enough that the first worker dies mid-evaluation: several
    # times the 2 s before the kill (about 7 s on a 2-vCPU host)
    slow = make_payload(train_iters=5000, n_tasks=3, side=8, seed=1)
    jobs = [Job(0, slow, deadline_s=300)]
    results_box = {}

    def coordinator():
        with Coordinator(addr) as c:
            results_box["results"] = serve_coordinator(
                c, jobs, global_timeout_s=120)

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
    with Coordinator(addr) as coordinator, pytest.raises(HarnessError):
        serve_coordinator(coordinator, [Job(0, make_payload())],
                          global_timeout_s=1.0)


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
            with Coordinator(addr) as c:
                box["results"] = serve_coordinator(
                    c, [Job(0, {}, deadline_s=60)], global_timeout_s=0.8)
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


def make_cmtr_payload():
    """A side-8 cmtr payload whose routing evolution trains at 0.01."""
    cm = make_payload(side=8)
    return CmtrPayload(**{**vars(cm), "hyper": dataclasses.replace(
        cm.hyper, learning_rate=0.01)}, ctr=CtrSettings(1, 2, 0.1))


def test_cmtr_payload_at_side_8_with_kernel_3_modules():
    # the initial routing chain must leave the second module a map its
    # kernel-3 genes fit: no adapter where the rest would not assemble
    result = evaluate_local(Job(0, make_cmtr_payload()))
    assert result.status == "ok", result.message


def test_a_cmtr_job_scores_no_validation_it_does_not_read(monkeypatch):
    # its fitness is the routing evolution's own best checkpointed mean
    from evomtl import training
    calls = []
    real = training.evaluate_accuracy
    monkeypatch.setattr(training, "evaluate_accuracy",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    result = evaluate_local(Job(0, make_cmtr_payload()))
    assert result.status == "ok", result.message
    assert calls == [] and result.per_task == {}
    assert 0.0 <= result.fitness <= 1.0


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
        with Coordinator(addr) as c:
            results_box["results"] = serve_coordinator(
                c, jobs, global_timeout_s=60)

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


@pytest.mark.parametrize("body", [
    b"[1]", b"{x",
    pytest.param(b'{"job_id":' + b"1" * 5000 + b"}",
                 id="int-past-the-digit-limit"),
    pytest.param(b"[" * 100000 + b"]" * 100000,
                 id="nesting-past-the-recursion-limit"),
])
def test_recv_frame_non_object_body_is_none(body):
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(5.0)
        a.sendall(struct.pack(">I", len(body)) + body)
        assert recv_frame(b) is None


def _run_worker_against(first_reply: bytes):
    """Run a worker against a fake coordinator that answers its first
    hello with the frame body `first_reply` and its second with shutdown.
    Returns the worker's exit code, the hellos and, per connection, the
    next frame after the reply (None once the worker hangs up)."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(2)
    server.settimeout(10.0)
    port = server.getsockname()[1]
    hellos, answers = [], []

    def coordinator():
        with server:
            for reply in (first_reply, b'{"kind":"shutdown"}'):
                conn, _ = server.accept()
                with conn:
                    conn.settimeout(10.0)
                    hellos.append(recv_frame(conn))
                    conn.sendall(struct.pack(">I", len(reply)) + reply)
                    answers.append(recv_frame(conn))

    fake = threading.Thread(target=coordinator)
    fake.start()
    code = run_worker(f"127.0.0.1:{port}", worker_id="w",
                      give_up_after_s=20.0)
    fake.join(timeout=10)
    assert not fake.is_alive()
    return code, hellos, answers


def test_worker_survives_a_garbage_frame_and_reconnects():
    # a fake coordinator answers the first hello with a non-object frame
    # and the second with shutdown: the worker drops the connection,
    # reconnects and exits cleanly
    code, hellos, _ = _run_worker_against(b"[1]")
    assert code == 0
    assert [h["kind"] for h in hellos] == ["hello", "hello"]


@pytest.mark.parametrize("job", [
    b'{"kind":"job","payload":{}}',
    b'{"kind":"job","job_id":"x","payload":{}}',
    b'{"kind":"job","job_id":1.5,"payload":{}}',
    b'{"kind":"job","job_id":1}',
    b'{"kind":"job","job_id":1,"payload":{},"deadline_s":"soon"}',
    b'{"kind":"job","job_id":true,"payload":{}}',
    b'{"kind":"job","job_id":1,"payload":{},"priority":2}',
], ids=["no-job-id", "text-job-id", "fractional-job-id", "no-payload",
        "text-deadline", "bool-job-id", "unknown-field"])
def test_worker_drops_a_malformed_job_frame_and_reconnects(job):
    # a job frame the worker cannot read is dropped like a garbage frame:
    # no result, a hang-up, a second hello and a clean exit
    code, hellos, answers = _run_worker_against(job)
    assert code == 0
    assert [h["kind"] for h in hellos] == ["hello", "hello"]
    assert answers == [None, None]


@pytest.mark.parametrize("bad_result", [
    {"kind": "result"},  # no result at all
    {"kind": "result",  # well formed, but for a job never dispatched
     "result": JobResult(999, "ok", fitness=1.0).to_obj()},
    {"kind": "result",  # a fitness the driver could not average
     "result": {**JobResult(1, "ok").to_obj(), "fitness": "0.5"}},
], ids=["missing", "other-job", "text-fitness"])
def test_coordinator_drops_a_worker_with_a_bad_result(bad_result):
    # a fake worker answers its job with a bad result frame: the
    # coordinator drops it and requeues the job, and an honest worker
    # finishes it; one result per job comes back
    port = free_port()
    addr = f"127.0.0.1:{port}"
    jobs = [Job(1, make_payload(train_iters=0), deadline_s=60)]
    results_box = {}

    def coordinator():
        with Coordinator(addr) as c:
            results_box["results"] = serve_coordinator(
                c, jobs, global_timeout_s=60)

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


@pytest.mark.parametrize("bad", [
    lambda: _mistyped("seed", "9"),
    lambda: [1],
], ids=["mistyped-seed", "not-an-object"])
def test_an_undecodable_payload_fails_and_the_connection_goes_on(
        monkeypatch, bad):
    # the worker answers a payload it cannot decode with a failed result
    # and takes the next job on the same connection; had it hung up, the
    # coordinator would requeue the job for every worker forever
    port = free_port()
    addr = f"127.0.0.1:{port}"
    connections = _counting(monkeypatch, Coordinator, "_serve_worker")
    jobs = [Job(0, bad(), deadline_s=30),
            Job(1, make_payload(), deadline_s=30)]
    results_box = {}

    def coordinator():
        with Coordinator(addr) as c:
            results_box["results"] = serve_coordinator(
                c, jobs, global_timeout_s=30)

    coord = threading.Thread(target=coordinator)
    coord.start()
    time.sleep(0.2)
    worker = threading.Thread(
        target=run_worker, kwargs=dict(coordinator_addr=addr, worker_id="w1"))
    worker.start()
    coord.join(timeout=60)
    worker.join(timeout=10)
    assert not coord.is_alive() and not worker.is_alive()
    results = results_box["results"]
    assert [(r.job_id, r.status, r.worker_id) for r in results] == [
        (0, "failed", "w1"), (1, "ok", "w1")]
    assert "payload" in results[0].message
    assert len(connections) == 1


def test_one_deadline_default_for_jobs_configs_and_workers(monkeypatch):
    # a job frame without deadline_s gets the same default on the worker
    # as a Job built without one and the run config
    from evomtl import harness
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
        ExperimentConfig().deadline_s


# --- the run-long coordinator ---------------------------------------------------


def _scripted_worker(port, log, work_s=0.0, worker_id="scripted"):
    """One connection for the whole run: say hello, answer every job with
    fitness job_id / 100 after `work_s` and stop at a shutdown. Logs each
    frame received as (kind, job_id) and, under "sent", the time just
    before each result went out, once the send has returned."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        send_frame(sock, {"kind": "hello", "worker_id": worker_id})
        while True:
            msg = recv_frame(sock)
            log.append((msg and msg["kind"], msg and msg.get("job_id")))
            if msg is None or msg["kind"] != "job":
                return
            time.sleep(work_s)
            result = JobResult(msg["job_id"], "ok",
                               fitness=msg["job_id"] / 100)
            sent = time.monotonic()
            send_frame(sock, {"kind": "result", "result": result.to_obj()})
            log.append(("sent", sent))


def _coordinator_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("evomtl-coordinator")]


def test_one_hello_and_one_shutdown_over_three_batches(monkeypatch):
    # a real worker stays connected across the run's batches: the
    # coordinator sees one hello, the worker one shutdown, and each batch
    # comes back in job order
    received = []
    real_recv = harness.recv_frame

    def counting_recv(sock):
        msg = real_recv(sock)
        if msg is not None:
            received.append(msg["kind"])
        return msg

    monkeypatch.setattr(harness, "recv_frame", counting_recv)
    port = free_port()
    addr = f"127.0.0.1:{port}"
    batches = [[2, 0, 1], [5, 3], [4]]
    box = {}
    with Coordinator(addr) as coordinator:
        worker = threading.Thread(target=lambda: box.update(code=run_worker(
            addr, worker_id="w", give_up_after_s=30.0)))
        worker.start()
        results = [serve_coordinator(coordinator, [
            Job(i, make_payload(seed=i), deadline_s=30) for i in ids])
            for ids in batches]
    worker.join(timeout=10)
    assert box == {"code": 0}
    assert [[r.job_id for r in rs] for rs in results] == batches
    assert all(r.status == "ok" and r.worker_id == "w"
               for rs in results for r in rs)
    assert received.count("hello") == 1
    assert received.count("shutdown") == 1
    assert received.count("job") == received.count("result") == 6


def test_job_answered_after_its_requeue_is_not_dispatched_again():
    # job 0 blows its deadline, so a copy goes back in the queue; then its
    # first result arrives. The next batch must not hand out that copy.
    port = free_port()
    addr = f"127.0.0.1:{port}"
    log = []
    with Coordinator(addr) as coordinator:
        worker = threading.Thread(target=_scripted_worker,
                                  args=(port, log, 0.8))
        worker.start()
        first = serve_coordinator(coordinator, [Job(0, {}, deadline_s=0.3)])
        second = serve_coordinator(coordinator, [Job(1, {}, deadline_s=30)])
    worker.join(timeout=10)
    assert [(r.job_id, r.fitness) for r in first + second] == [
        (0, 0.0), (1, 0.01)]
    assert [entry for entry in log if entry[0] != "sent"] == [
        ("job", 0), ("job", 1), ("shutdown", None)]


def test_job_requeued_at_its_deadline_goes_to_an_idle_worker():
    # the batch wakes at the in-flight job's deadline, not at its next
    # result: a worker idle since before the deadline takes the requeued
    # job while the first one is still busy with it
    port = free_port()
    addr = f"127.0.0.1:{port}"
    slow_log, idle_log = [], []
    slow = threading.Thread(target=_scripted_worker,
                            args=(port, slow_log, 2.5, "slow"))
    idle = threading.Thread(target=_scripted_worker,
                            args=(port, idle_log, 0.0, "idle"))
    with Coordinator(addr) as coordinator:
        slow.start()
        threading.Timer(0.3, idle.start).start()
        t0 = time.monotonic()
        (result,) = serve_coordinator(coordinator,
                                      [Job(0, {}, deadline_s=0.6)])
        elapsed = time.monotonic() - t0
    slow.join(timeout=10)
    idle.join(timeout=10)
    assert not slow.is_alive() and not idle.is_alive()
    assert result.worker_id == "idle"
    assert 0.6 <= elapsed < 2.0
    assert [k for k, _ in idle_log if k != "sent"] == ["job", "shutdown"]


def test_worker_killed_between_batches_is_replaced():
    port = free_port()
    addr = f"127.0.0.1:{port}"
    with Coordinator(addr) as coordinator:
        victim = subprocess.Popen(
            [sys.executable, "-c",
             "from evomtl.harness import run_worker; "
             f"run_worker({addr!r}, 'victim')"])
        try:
            first = serve_coordinator(
                coordinator, [Job(0, make_payload(), deadline_s=60)])
        finally:
            victim.kill()
            victim.wait()
        box = {}
        rescuer = threading.Thread(target=lambda: box.update(code=run_worker(
            addr, worker_id="rescue", give_up_after_s=30.0)))
        rescuer.start()
        second = serve_coordinator(
            coordinator, [Job(i, make_payload(seed=i), deadline_s=60)
                   for i in (1, 2)])
    rescuer.join(timeout=10)
    assert [(r.job_id, r.worker_id) for r in first + second] == [
        (0, "victim"), (1, "rescue"), (2, "rescue")]
    assert box == {"code": 0}


def test_close_leaves_no_thread_and_a_free_port():
    port = free_port()
    addr = f"127.0.0.1:{port}"
    box = {}
    with Coordinator(addr) as coordinator:
        worker = threading.Thread(target=lambda: box.update(code=run_worker(
            addr, worker_id="w", give_up_after_s=30.0)))
        worker.start()
        serve_coordinator(coordinator, [Job(0, make_payload(), deadline_s=30)])
        assert len(_coordinator_threads()) == 2  # accept + one handler
    worker.join(timeout=10)
    assert box == {"code": 0}
    assert _coordinator_threads() == []
    with socket.socket() as s:  # no SO_REUSEADDR: nothing lingers
        s.bind(("127.0.0.1", port))
    # a later coordinator at the same address waits for workers of its
    # own, and closes again
    with Coordinator(addr) as coordinator, \
            pytest.raises(HarnessError, match="no workers connected"):
        serve_coordinator(coordinator, [Job(1, {})], global_timeout_s=0.2)
    assert _coordinator_threads() == []


def test_batch_returns_on_its_last_result():
    # the time from a batch's last result frame to serve_coordinator
    # returning is a wakeup, not an accept poll
    port = free_port()
    addr = f"127.0.0.1:{port}"
    log = []
    lags = []
    with Coordinator(addr) as coordinator:
        worker = threading.Thread(target=_scripted_worker, args=(port, log))
        worker.start()
        for i in range(5):
            serve_coordinator(coordinator, [Job(i, {}, deadline_s=30)])
            returned = time.monotonic()
            # the coordinator may record the result before the worker's
            # send returns and logs it
            give_up = returned + 5.0
            while (len(sent := [t for kind, t in log if kind == "sent"]) <= i
                   and time.monotonic() < give_up):
                time.sleep(0.001)
            lags.append(returned - sent[i])
    worker.join(timeout=10)
    assert sorted(lags)[2] < 0.05, lags


def test_many_workers_many_batches_each_job_once():
    # more workers than cores and a short switch interval: every job is
    # dispatched once, every batch comes back in job order, and every
    # worker gets exactly one shutdown
    port = free_port()
    addr = f"127.0.0.1:{port}"
    logs = [[] for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Coordinator(addr) as coordinator:
            workers = [threading.Thread(target=_scripted_worker,
                                        args=(port, log)) for log in logs]
            for w in workers:
                w.start()
            batches = [list(range(8 * b + 7, 8 * b - 1, -1)) for b in range(10)]
            results = [serve_coordinator(
                coordinator, [Job(i, {}, deadline_s=30) for i in ids])
                for ids in batches]
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [[(r.job_id, r.fitness) for r in rs] for rs in results] == [
        [(i, i / 100) for i in ids] for ids in batches]
    jobs = sorted(j for log in logs for kind, j in log if kind == "job")
    assert jobs == list(range(80))
    assert all(log[-1] == ("shutdown", None)
               and sum(kind == "shutdown" for kind, _ in log) == 1
               for log in logs)


def test_no_progress_limit_follows_the_job_deadline(monkeypatch):
    # no worker ever connects: the batch gives up after the longest job
    # deadline, not after a fixed ten minutes (the liveness timeout, its
    # floor, is shortened here so the deadline is the longer)
    monkeypatch.setattr(harness, "LIVENESS_TIMEOUT_S", 0.2)
    port = free_port()
    box = {}

    def batch():
        try:
            with Coordinator(f"127.0.0.1:{port}") as coordinator:
                distributed_evaluator(coordinator)(
                    [Job(0, {}, deadline_s=0.5), Job(1, {}, deadline_s=1.0)])
        except HarnessError as e:
            box["error"] = e

    t0 = time.monotonic()
    runner = threading.Thread(target=batch, daemon=True)
    runner.start()
    runner.join(timeout=15)
    assert not runner.is_alive()
    assert "no workers connected within 1.0s" in str(box["error"])
    assert time.monotonic() - t0 >= 1.0


def test_idle_worker_outlives_its_connect_timeout(monkeypatch):
    # the connect timeout must not bound the wait for the next job: a
    # worker idle for longer keeps its one connection
    real_connect = socket.create_connection
    monkeypatch.setattr(harness.socket, "create_connection",
                        lambda address, timeout=None: real_connect(
                            address, timeout=0.3))
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(4)
    server.settimeout(10.0)
    port = server.getsockname()[1]
    hellos = []

    def coordinator():
        with server:
            conn, _ = server.accept()
            with conn:
                conn.settimeout(10.0)
                hellos.append(recv_frame(conn))
                time.sleep(1.0)  # idle, past the connect timeout
                try:
                    send_frame(conn, {"kind": "shutdown"})
                    conn.recv(1)  # wait for the worker to hang up
                except OSError:
                    pass

    fake = threading.Thread(target=coordinator)
    fake.start()
    code = run_worker(f"127.0.0.1:{port}", worker_id="w", give_up_after_s=4.0)
    fake.join(timeout=10)
    assert not fake.is_alive()
    assert code == 0
    assert [h["kind"] for h in hellos] == ["hello"]


def test_cli_serve_run_matches_local_and_releases_its_worker(tmp_path):
    from evomtl.cli import main
    port = free_port()
    addr = f"127.0.0.1:{port}"
    argv = ["run", "--algorithm", "cm", "--seed", "5", "--networks-per-gen",
            "3", "--modules", "4", "--species", "2", "--generations", "2",
            "--train-iters", "2", "--long-iters", "2", "--n-top", "1",
            "--synth", "2x3x12"]
    assert main([*argv, "--out", str(tmp_path / "local")]) == 0
    box = {}
    worker = threading.Thread(target=lambda: box.update(code=run_worker(
        addr, worker_id="w", give_up_after_s=60.0)))
    worker.start()
    assert main([*argv, "--out", str(tmp_path / "served"),
                 "--serve", addr]) == 0
    worker.join(timeout=10)
    assert box == {"code": 0}
    assert _coordinator_threads() == []
    with socket.socket() as s:
        s.bind(("127.0.0.1", port))
    for name in ("report.json", "history.jsonl", "best_network.json"):
        assert ((tmp_path / "served" / name).read_bytes()
                == (tmp_path / "local" / name).read_bytes()), name


# --- the per-run dataset scope -------------------------------------------


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_run_reads_its_pgm_tree_once(tmp_path, monkeypatch):
    # every job, retrain and the CLI itself build the dataset; inside the
    # run's scope only the first build reads the tree, and the next run
    # reads it again
    import evomtl.cli as cli
    tree = pgm_tree(tmp_path / "data")
    loads = _counting(monkeypatch, harness, "load_image_dir")
    builds = _counting(monkeypatch, harness, "build_dataset")
    monkeypatch.setattr(cli, "build_dataset", harness.build_dataset)
    argv = ["run", "--algorithm", "cm", "--seed", "5", "--networks-per-gen",
            "3", "--modules", "4", "--species", "2", "--generations", "2",
            "--train-iters", "2", "--long-iters", "2", "--n-top", "1",
            "--data-dir", tree.dir, "--image-side", "8"]
    assert cli.main([*argv, "--out", str(tmp_path / "a")]) == 0
    assert len(loads) == 1 and len(builds) > 3
    assert cli.main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert len(loads) == 2
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())


def test_each_build_in_a_scope_locks_its_own_test_split(tmp_path):
    from evomtl.errors import StateError
    ref = pgm_tree(tmp_path)
    with harness.dataset_scope():
        first = harness.build_dataset(ref)
        with harness.dataset_scope():  # a nested scope joins the open one
            second = harness.build_dataset(ref)
        assert second.tasks is first.tasks  # one corpus, read once
        first.unlock_test()
        assert first.examples_for(first.tasks[0], "test")
        for spec in (second, harness.build_dataset(ref)):
            with pytest.raises(StateError):
                spec.examples_for(spec.tasks[0], "test")
    # outside a scope every call builds its own corpus, as before
    assert harness.build_dataset(ref).tasks is not \
        harness.build_dataset(ref).tasks


def test_a_later_scope_reads_a_rewritten_tree(tmp_path):
    ref = pgm_tree(tmp_path)

    def first_image():
        spec = harness.build_dataset(ref)
        return spec.tasks[0].examples[0][0].tobytes()

    with harness.dataset_scope():
        old = first_image()
        pgm_tree(tmp_path, fill=0.5)
        assert first_image() == old  # the scope keeps what it read
    with harness.dataset_scope():
        assert first_image() != old


def test_a_failed_build_is_not_kept(tmp_path):
    from evomtl.errors import DataError
    ref = DirRef(str(tmp_path / "data"), 8, split_seed=3)
    with harness.dataset_scope():
        with pytest.raises(DataError):
            harness.build_dataset(ref)
        pgm_tree(tmp_path / "data")
        assert len(harness.build_dataset(ref).tasks) == 2


def test_worker_builds_each_dataset_once_per_connection(monkeypatch):
    # two jobs on one connection share a build; the reconnect that
    # follows, which may be to a later run, builds again
    builds = _counting(monkeypatch, harness, "synth_generate")
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(2)
    server.settimeout(10.0)
    port = server.getsockname()[1]
    results = []

    def coordinator():
        with server:
            for job_ids, release in (([0, 1], False), ([2], True)):
                conn, _ = server.accept()
                with conn:
                    conn.settimeout(10.0)
                    assert recv_frame(conn)["kind"] == "hello"
                    for job_id in job_ids:
                        send_frame(conn, {"kind": "job", "job_id": job_id,
                                          "payload": to_obj(make_payload()),
                                          "deadline_s": 30})
                        msg = recv_frame(conn)
                        while msg["kind"] != "result":
                            msg = recv_frame(conn)
                        results.append(msg["result"])
                    if release:
                        send_frame(conn, {"kind": "shutdown"})
                        conn.recv(1)  # wait for the worker to hang up

    fake = threading.Thread(target=coordinator)
    fake.start()
    code = run_worker(f"127.0.0.1:{port}", worker_id="w",
                      give_up_after_s=20.0)
    fake.join(timeout=10)
    assert not fake.is_alive() and code == 0
    assert len(builds) == 2
    want = evaluate_local(Job(0, make_payload())).fitness
    assert [(r["status"], r["fitness"]) for r in results] == [("ok", want)] * 3
