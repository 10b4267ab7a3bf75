"""Evaluation execution: in-process and distributed.

A Job's payload is self-contained: serialized genomes, global
hyperparameters, algorithm tag, training config, and a dataset reference
(directory path or synthesis parameters), so any worker can evaluate it
from scratch. Evaluations are seeded by the payload, which makes replays
byte-identical; the coordinator therefore runs at-least-once scheduling
with first-result-wins deduplication.

Wire protocol: 4-byte big-endian length-prefixed JSON frames over TCP.
Message kinds: hello, job, result, heartbeat, shutdown. Workers send a
heartbeat every HEARTBEAT_S; the coordinator treats a worker as dead
after LIVENESS_TIMEOUT_S of silence or on disconnect, and reassigns
whatever that worker was running. No TLS or authentication: this is a
trusted-network tool.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import CmGridNet, CmsrNet, realize_module
from .dataset import load_image_dir, split_fixed, synth_generate
from .errors import EvoMtlError, HarnessError, ParseError
from .genome import genome_from_obj, hyper_from_obj
from .routing import run_ctr
from .serialize import canon_dumps, canon_loads
from .training import evaluate_accuracy, train_network

HEARTBEAT_S = 10.0
LIVENESS_TIMEOUT_S = 30.0
ADDR_ENV_VAR = "EVOMTL_COORDINATOR_ADDR"
# Largest frame a peer may announce. A desk cm run over loopback sends 42
# frames of 33 kB in all, so real frames sit far below this; the cap stops
# one corrupt or hostile header from making the receiver wait for, and
# allocate, up to 4 GiB.
MAX_FRAME_BYTES = 64 * 1024 * 1024


@dataclass
class Job:
    job_id: int
    payload: dict
    deadline_s: float = 300.0


@dataclass
class JobResult:
    job_id: int
    status: str  # ok | failed | timeout
    fitness: float | None = None
    per_task: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    worker_id: str = ""
    message: str = ""

    def to_obj(self) -> dict:
        return {"job_id": self.job_id, "status": self.status,
                "fitness": self.fitness, "per_task": self.per_task,
                "wall_time_s": self.wall_time_s, "worker_id": self.worker_id,
                "message": self.message}

    @staticmethod
    def from_obj(obj) -> "JobResult":
        return JobResult(job_id=int(obj["job_id"]), status=str(obj["status"]),
                         fitness=obj["fitness"], per_task=obj["per_task"],
                         wall_time_s=float(obj["wall_time_s"]),
                         worker_id=str(obj["worker_id"]),
                         message=str(obj["message"]))


# --- payload evaluation -------------------------------------------------------


def build_dataset(ref: dict):
    """Materialize the dataset a payload references and apply the fixed
    split. Pure function of the reference, so every worker sees the same
    bytes."""
    if "synth" in ref:
        s = ref["synth"]
        spec = synth_generate(int(s["seed"]), int(s["n_tasks"]),
                              int(s["n_classes"]), int(s["image_side"]),
                              float(s["noise"]),
                              int(s.get("examples_per_class", 30)),
                              float(s.get("density", 0.25)))
    elif "dir" in ref:
        spec = load_image_dir(ref["dir"], int(ref["image_side"]),
                              int(ref.get("order_seed", 0)))
    else:
        raise ParseError(f"dataset reference {ref} has neither synth nor dir")
    return split_fixed(spec, int(ref["split_seed"]))


def build_payload_network(payload: dict, spec, rng: np.random.Generator):
    """Assemble the (untrained) network a cm/cmsr payload describes."""
    hyper = hyper_from_obj(payload["hyper"])
    modules = [genome_from_obj(o) for o in payload["modules"]]
    tids = [t.task_id for t in spec.tasks]
    cls = [t.class_count for t in spec.tasks]
    if payload["algorithm"] == "cm":
        return CmGridNet(modules, hyper, tids, cls, spec.image_side, rng)
    if payload["algorithm"] == "cmsr":
        blueprint = genome_from_obj(payload["blueprint"])
        species_map = {int(s): modules[i]
                       for s, i in payload["species_map"].items()}
        return CmsrNet(blueprint, species_map, hyper, tids, cls,
                       spec.image_side, rng)
    raise ParseError(f"no network form for algorithm {payload['algorithm']!r}")


def realize_payload_modules(payload: dict, rng: np.random.Generator):
    """Expand the ordered module set to k_modules realized instances,
    cycling the designs; every slot gets separate fresh weights."""
    hyper = hyper_from_obj(payload["hyper"])
    genomes = [genome_from_obj(o) for o in payload["modules"]]
    return [realize_module(genomes[k % len(genomes)], hyper, rng, f"m{k}")
            for k in range(hyper.k_modules)]


def train_payload(payload: dict, *, lr_decay: bool = False,
                  snapshot_every: int | None = None):
    """Build and train the model a payload describes, seeded by it;
    returns (model, spec, fitness or None). A cm/cmsr network trains for
    `train_iters`; a cmtr payload runs routing evolution, whose fitness is
    its best checkpointed mean validation accuracy."""
    spec = build_dataset(payload["dataset"])
    rng = np.random.default_rng(int(payload["seed"]))
    hyper = hyper_from_obj(payload["hyper"])
    if payload["algorithm"] in ("cm", "cmsr"):
        net = build_payload_network(payload, spec, rng)
        train_network(net, spec, int(payload["train_iters"]),
                      hyper.learning_rate, rng, lr_decay=lr_decay,
                      snapshot_every=snapshot_every)
        return net, spec, None
    if payload["algorithm"] == "cmtr":
        ctr = payload["ctr"]
        modules = realize_payload_modules(payload, rng)
        final, best, _ = run_ctr(
            modules, spec, int(ctr["meta_iters"]), int(ctr["m_iters"]),
            float(ctr["alpha"]), float(ctr.get("lr") or hyper.learning_rate),
            rng, eval_subsample=ctr.get("eval_subsample"))
        return final, spec, best
    raise ParseError(f"unknown algorithm {payload['algorithm']!r}")


def evaluate_payload(payload: dict):
    """Run one evaluation; returns (fitness, per_task accuracies)."""
    model, spec, fitness = train_payload(payload)
    per_task, mean = evaluate_accuracy(model, spec, "val")
    return (mean if fitness is None else fitness), per_task


def evaluate_local(job: Job, worker_id: str = "local") -> JobResult:
    start = time.monotonic()
    try:
        fitness, per_task = evaluate_payload(job.payload)
    except (EvoMtlError, KeyError, TypeError, ValueError) as e:
        return JobResult(job.job_id, "failed", worker_id=worker_id,
                         wall_time_s=time.monotonic() - start,
                         message=f"{type(e).__name__}: {e}")
    return JobResult(job.job_id, "ok", fitness=fitness, per_task=per_task,
                     wall_time_s=time.monotonic() - start, worker_id=worker_id)


def local_evaluator(jobs: list[Job]) -> list[JobResult]:
    return [evaluate_local(job) for job in jobs]


# --- framing -------------------------------------------------------------------


def send_frame(sock: socket.socket, obj: dict, lock=None) -> None:
    data = canon_dumps(obj).encode("utf-8")
    frame = struct.pack(">I", len(data)) + data
    if lock:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)


def recv_frame(sock: socket.socket):
    """Next message, or None on a closed, broken or truncated connection,
    a header announcing more than MAX_FRAME_BYTES, or a body that is not a
    JSON object."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        return None
    data = _recv_exact(sock, length)
    if data is None:
        return None
    try:
        msg = canon_loads(data)
    except ParseError:
        return None
    return msg if isinstance(msg, dict) else None


def _recv_exact(sock: socket.socket, n: int):
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            chunk = sock.recv_into(view[got:])
        except OSError:
            return None
        if not chunk:
            return None
        got += chunk
    return buf


# --- coordinator ----------------------------------------------------------------


class _CoordinatorState:
    def __init__(self, jobs: list[Job]):
        self.lock = threading.Condition()
        self.pending: list[Job] = list(jobs)
        self.inflight: dict[int, tuple[Job, str, float]] = {}
        self.results: dict[int, JobResult] = {}
        self.total = len(jobs)
        self.worker_seen: dict[str, float] = {}

    def done(self) -> bool:
        return len(self.results) >= self.total


def serve_coordinator(bind_addr: str, jobs: list[Job],
                      global_timeout_s: float = 600.0) -> list[JobResult]:
    """Distribute jobs to connecting workers; returns one result per job.

    At-least-once semantics: a job whose worker disconnects, goes silent
    past the liveness timeout, or blows its deadline goes back in the
    queue; the first result recorded for a job_id wins and duplicates are
    discarded.
    """
    host, port_s = bind_addr.rsplit(":", 1)
    state = _CoordinatorState(jobs)
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, int(port_s)))
    server.listen(64)
    server.settimeout(0.2)
    stop = threading.Event()

    def handle_worker(conn: socket.socket):
        conn.settimeout(max(LIVENESS_TIMEOUT_S, 5.0))
        worker_id = "?"
        current: Job | None = None
        try:
            hello = recv_frame(conn)
            if not hello or hello.get("kind") != "hello":
                return
            worker_id = str(hello.get("worker_id", "?"))
            with state.lock:
                state.worker_seen[worker_id] = time.monotonic()
            while not stop.is_set():
                with state.lock:
                    while (not state.pending and not state.done()
                           and not stop.is_set()):
                        state.lock.wait(timeout=0.2)
                        _requeue_expired(state)
                    if state.done() or stop.is_set():
                        break
                    current = state.pending.pop(0)
                    state.inflight[current.job_id] = (
                        current, worker_id, time.monotonic())
                send_frame(conn, {"kind": "job", "job_id": current.job_id,
                                  "payload": current.payload,
                                  "deadline_s": current.deadline_s})
                while True:
                    msg = recv_frame(conn)
                    if msg is None:
                        raise ConnectionError("worker disconnected")
                    if msg.get("kind") == "heartbeat":
                        with state.lock:
                            state.worker_seen[worker_id] = time.monotonic()
                        continue
                    if msg.get("kind") == "result":
                        result = JobResult.from_obj(msg["result"])
                        result.worker_id = worker_id
                        with state.lock:
                            state.inflight.pop(result.job_id, None)
                            # first result per job_id wins
                            if result.job_id not in state.results:
                                state.results[result.job_id] = result
                            state.lock.notify_all()
                        current = None
                        break
            send_frame(conn, {"kind": "shutdown"})
        except (ConnectionError, OSError):
            pass
        finally:
            with state.lock:
                if current is not None and current.job_id not in state.results:
                    state.inflight.pop(current.job_id, None)
                    state.pending.append(current)
                state.lock.notify_all()
            conn.close()

    def _requeue_expired(st: _CoordinatorState):
        # caller holds the lock
        now = time.monotonic()
        for job_id in list(st.inflight):
            job, wid, started = st.inflight[job_id]
            silent = now - st.worker_seen.get(wid, started)
            if now - started > job.deadline_s or silent > LIVENESS_TIMEOUT_S:
                del st.inflight[job_id]
                if job_id not in st.results:
                    st.pending.append(job)

    threads = []
    start = time.monotonic()
    try:
        while True:
            with state.lock:
                _requeue_expired(state)
                if state.done():
                    break
                any_worker = bool(state.worker_seen)
            if not any_worker and time.monotonic() - start > global_timeout_s:
                raise HarnessError(
                    f"no workers connected within {global_timeout_s}s")
            if time.monotonic() - start > global_timeout_s:
                raise HarnessError(f"jobs unfinished after {global_timeout_s}s")
            try:
                conn, _ = server.accept()
            except socket.timeout:
                continue
            t = threading.Thread(target=handle_worker, args=(conn,), daemon=True)
            t.start()
            threads.append(t)
    finally:
        stop.set()
        with state.lock:
            state.lock.notify_all()
        server.close()
        for t in threads:
            t.join(timeout=2.0)
    return [state.results[j.job_id] for j in jobs]


def distributed_evaluator(bind_addr: str, global_timeout_s: float = 600.0):
    """Evaluator callable backed by `serve_coordinator` on a fixed address."""
    def evaluate(jobs: list[Job]) -> list[JobResult]:
        return serve_coordinator(bind_addr, jobs, global_timeout_s)
    return evaluate


# --- worker ---------------------------------------------------------------------


def run_worker(coordinator_addr: str | None = None,
               worker_id: str | None = None,
               max_backoff_s: float = 60.0,
               give_up_after_s: float | None = None) -> int:
    """Connect, evaluate jobs until a shutdown message, exit 0.

    Evaluation errors become failed results and the worker survives;
    connection loss triggers reconnection with exponential backoff
    (1s doubling up to max_backoff_s).
    """
    addr = coordinator_addr or os.environ.get(ADDR_ENV_VAR)
    if not addr:
        raise HarnessError(
            f"no coordinator address given and ${ADDR_ENV_VAR} unset")
    host, port_s = addr.rsplit(":", 1)
    wid = worker_id or f"worker-{os.getpid()}"
    backoff = 1.0
    started = time.monotonic()
    while True:
        if (give_up_after_s is not None
                and time.monotonic() - started > give_up_after_s):
            return 1
        try:
            sock = socket.create_connection((host, int(port_s)), timeout=10.0)
        except OSError:
            time.sleep(min(backoff, max_backoff_s))
            backoff = min(backoff * 2, max_backoff_s)
            continue
        backoff = 1.0
        send_lock = threading.Lock()
        stop_beat = threading.Event()

        def heartbeat():
            while not stop_beat.wait(HEARTBEAT_S):
                try:
                    send_frame(sock, {"kind": "heartbeat", "worker_id": wid},
                               send_lock)
                except OSError:
                    return

        beat = threading.Thread(target=heartbeat, daemon=True)
        try:
            send_frame(sock, {"kind": "hello", "worker_id": wid}, send_lock)
            beat.start()
            while True:
                msg = recv_frame(sock)
                if msg is None:
                    break  # reconnect
                kind = msg.get("kind")
                if kind == "shutdown":
                    return 0
                if kind != "job":
                    continue
                job = Job(int(msg["job_id"]), msg["payload"],
                          float(msg.get("deadline_s", 300.0)))
                result = evaluate_local(job, worker_id=wid)
                send_frame(sock, {"kind": "result", "result": result.to_obj()},
                           send_lock)
        except OSError:
            pass
        finally:
            stop_beat.set()
            sock.close()
