"""Evaluation execution: in-process and distributed.

A Job's payload is self-contained: genomes, global hyperparameters, a
seed, a training length and a dataset reference, so any worker can
evaluate it from scratch. Its class, named by its `algorithm` tag, holds
all that differs by algorithm: `CmPayload`, `CmsrPayload` (adds a
blueprint) and `CmtrPayload` (adds routing evolution). Evaluations are
seeded by the payload, which makes replays byte-identical; the
coordinator therefore runs at-least-once scheduling with
first-result-wins deduplication.

A job trains from scratch but need not read its data from scratch: inside
a `dataset_scope` each dataset reference is built once and its tasks are
shared read-only by every later build. `evomtl run` opens one scope for
the whole run, and a worker one per coordinator connection.

Wire protocol: 4-byte big-endian length-prefixed JSON frames over TCP.
Message kinds: hello, job, result, heartbeat, shutdown. Workers send a
heartbeat every HEARTBEAT_S; the coordinator treats a worker as dead
after LIVENESS_TIMEOUT_S of silence or on disconnect, and reassigns
whatever that worker was running. A Coordinator lives for a whole run,
which hands it to `serve_coordinator` for every batch: a worker connects
once, takes jobs from every batch, and is released by one shutdown when
the run closes its coordinator. No TLS or authentication: this is a
trusted-network tool.
"""

from __future__ import annotations

import contextlib
import math
import os
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .assembly import CmGridNet, CmsrNet, realize_module
from .config import DEFAULT_DEADLINE_S, ExperimentConfig, parse_addr
from .dataset import (
    DatasetRef, MultitaskSpec, SynthRef, load_image_dir, split_fixed,
    synth_generate,
)
from .errors import EvoMtlError, HarnessError, ParseError
from .genome import BlueprintGenome, GlobalHyper, ModuleGenome
from .routing import run_ctr
from .serialize import canon_dumps, canon_loads, from_obj, to_obj
from .training import train_network

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
    payload: object  # a Payload, or the JSON object a job frame carried
    deadline_s: float = DEFAULT_DEADLINE_S


@dataclass
class JobResult:
    job_id: int
    status: str  # ok | failed | timeout
    fitness: float | None = None
    per_task: dict[str, float] = field(default_factory=dict)
    wall_time_s: float = 0.0
    worker_id: str = ""
    message: str = ""

    def to_obj(self) -> dict:
        return to_obj(self)


# --- payloads -------------------------------------------------------------------


@dataclass(frozen=True)
class CtrSettings:
    """A cmtr evaluation's routing evolution, trained at the payload's
    evolved rate. A retired `lr` key, always null, still decodes."""

    retired_keys = ("lr",)
    meta_iters: int
    m_iters: int
    alpha: float
    eval_subsample: int | None = None


@dataclass
class CmPayload:
    """One module design per species on the grid; the fitness goes to the
    genomes `genome_ids` names, by (kind, id), and to hyperparameter
    candidate `hyper_id`."""

    algorithm: ClassVar[str] = "cm"
    modules: list[ModuleGenome]
    module_ids: list[int]
    hyper: GlobalHyper
    hyper_id: int
    dataset: DatasetRef
    seed: int
    train_iters: int

    @classmethod
    def planned(cls, fields: dict, blueprint, species_ids, ctr):
        """A planned job's payload: `fields` plus what this class adds."""
        return cls(**fields)

    def genome_ids(self) -> list[tuple[str, int]]:
        return [(ModuleGenome.kind, gid) for gid in self.module_ids]

    def network(self, spec: MultitaskSpec, rng: np.random.Generator):
        return CmGridNet(self.modules, self.hyper, *_task_shape(spec), rng)

    def train(self, spec: MultitaskSpec, rng: np.random.Generator,
              **schedule):
        """(trained model, per-task validation accuracy, fitness): the
        validation score `train_network` took of the weights it left, the
        mean being the fitness; `schedule` goes to `train_network`."""
        net = build_payload_network(self, spec, rng)
        per_task, fitness = train_network(
            net, spec, self.train_iters, self.hyper.learning_rate, rng,
            **schedule)
        return net, per_task, fitness

    def lengthened(self, cfg: ExperimentConfig):
        """This evaluation with the long training `cfg` sets. The seed is
        kept, so it extends the short run it was ranked by."""
        return replace(self, train_iters=cfg.long_iters)


@dataclass
class CmsrPayload(CmPayload):
    """Modules wired by a blueprint; `species_map` maps a species id to
    its design's index in `modules`."""

    algorithm: ClassVar[str] = "cmsr"
    blueprint: BlueprintGenome
    blueprint_id: int
    species_map: dict[int, int]

    @classmethod
    def planned(cls, fields: dict, blueprint, species_ids, ctr):
        return cls(**fields, blueprint=blueprint,
                   blueprint_id=blueprint.genome_id,
                   species_map={s: i for i, s in enumerate(species_ids)})

    def genome_ids(self) -> list[tuple[str, int]]:
        return [*super().genome_ids(),
                (BlueprintGenome.kind, self.blueprint_id)]

    def network(self, spec: MultitaskSpec, rng: np.random.Generator):
        modules = {s: self.modules[i] for s, i in self.species_map.items()}
        return CmsrNet(self.blueprint, modules, self.hyper,
                       *_task_shape(spec), rng)


@dataclass
class CmtrPayload(CmPayload):
    """Routing evolution over `hyper.k_modules` realized modules, cycling
    the designs; the fitness is its best checkpointed mean."""

    algorithm: ClassVar[str] = "cmtr"
    ctr: CtrSettings

    @classmethod
    def planned(cls, fields: dict, blueprint, species_ids, ctr):
        return cls(**fields, ctr=ctr)

    def train(self, spec: MultitaskSpec, rng: np.random.Generator,
              **schedule):
        h, c = self.hyper, self.ctr
        modules = [realize_module(self.modules[k % len(self.modules)], h,
                                  rng, f"m{k}") for k in range(h.k_modules)]
        final, best, _ = run_ctr(modules, spec, c.meta_iters, c.m_iters,
                                 c.alpha, h.learning_rate, rng,
                                 eval_subsample=c.eval_subsample)
        return final, {}, best

    def lengthened(self, cfg: ExperimentConfig):
        return replace(self, ctr=replace(self.ctr,
                                         meta_iters=cfg.retrain_meta_iters))


Payload = CmPayload | CmsrPayload | CmtrPayload
PAYLOADS = {cls.algorithm: cls for cls in Payload.__args__}


@dataclass
class BestNetwork:
    """`best_network.json`: the tested model's payload and report. The
    payload, in its long form, retrains to that model under the final
    schedule (`coevolve.retrain_top`)."""

    kind: ClassVar[str] = "best_network"
    payload: Payload
    report: dict


def _task_shape(spec: MultitaskSpec):
    return ([t.task_id for t in spec.tasks], [t.class_count for t in spec.tasks],
            spec.image_side)


# --- payload evaluation -------------------------------------------------------


# Per thread: the corpora built inside the open `dataset_scope`, by
# dataset reference; None outside a scope.
_scope = threading.local()


@contextlib.contextmanager
def dataset_scope():
    """Build each dataset at most once until the block exits.

    Inside the scope `build_dataset` keeps every corpus it builds, keyed
    by its reference, and later calls for the same reference reuse it. A
    run opens one around all of its work, a worker one per coordinator
    connection, so nothing outlives the run that read it: a later scope
    reads the files again. The scope belongs to the thread that opened
    it; a nested scope joins the open one."""
    if getattr(_scope, "built", None) is not None:
        yield
        return
    _scope.built = {}
    try:
        yield
    finally:
        _scope.built = None


def build_dataset(ref: DatasetRef) -> MultitaskSpec:
    """Materialize the dataset a payload references and apply the fixed
    split. Pure function of the reference, so every worker sees the same
    bytes.

    Inside a `dataset_scope` the tasks are built once per reference and
    shared read-only; each call still returns a spec of its own with the
    test split locked, so unlocking one caller's test split reaches no
    other caller. A build that raises is not kept."""
    built = getattr(_scope, "built", None)
    if built is None:
        spec = _build_dataset(ref)
    else:
        spec = built.get(ref)
        if spec is None:
            spec = built[ref] = _build_dataset(ref)
        spec = MultitaskSpec(spec.tasks, spec.image_side)
    spec.ref = ref
    return spec


def _build_dataset(ref: DatasetRef) -> MultitaskSpec:
    if isinstance(ref, SynthRef):
        spec = synth_generate(**vars(ref.synth))
    else:
        spec = load_image_dir(ref.dir, ref.image_side, ref.order_seed)
    return split_fixed(spec, ref.split_seed)


def build_payload_network(payload: Payload, spec, rng: np.random.Generator):
    """Assemble the (untrained) network a cm/cmsr payload describes."""
    return payload.network(spec, rng)


def evaluate_payload(payload: Payload, **schedule):
    """Build and train the model a payload describes, seeded by it;
    returns (fitness, per_task validation accuracies, model, spec), the
    scores its training took; nothing is scored again. A cm/cmsr fitness
    is the mean validation accuracy of the weights `train_network` left;
    cmtr's is its best checkpointed mean, with per_task empty. `schedule`
    (lr_decay, snapshot_every) goes to a cm/cmsr network's
    `train_network`."""
    spec = build_dataset(payload.dataset)
    model, per_task, fitness = payload.train(
        spec, np.random.default_rng(payload.seed), **schedule)
    return fitness, per_task, model, spec


def evaluate_local(job: Job, worker_id: str = "local") -> JobResult:
    """Evaluate a job in this process. Its payload is decoded here, once,
    so one that does not decode is a failed result like any other."""
    start = time.monotonic()
    try:
        fitness, per_task, _, _ = evaluate_payload(
            from_obj(Payload, job.payload, "payload"))
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
    """The bookkeeping of one run's coordinator: queued jobs, jobs in
    flight, recorded results and when each worker was last heard from.

    Job ids are unique across a run, so results are kept for the whole
    run and the first one recorded for a job wins. Every access holds
    `lock`, on which idle handlers wait for work and a batch waits for
    its results.
    """

    def __init__(self, jobs: list[Job] = ()):
        self.lock = threading.Condition()
        self.pending: deque[Job] = deque(jobs)
        self.inflight: dict[int, tuple[Job, str, float]] = {}
        self.results: dict[int, JobResult] = {}
        self.worker_seen: dict[str, float] = {}
        # last hello, heartbeat or result of any worker
        self.last_progress = time.monotonic()
        self.closed = False

    def heard_from(self, worker_id: str) -> None:
        self.worker_seen[worker_id] = self.last_progress = time.monotonic()

    def next_job(self, worker_id: str) -> Job | None:
        """Wait for a queued job that has no result yet and mark it in
        flight; None once the coordinator closes. A requeued copy of a job
        answered since is dropped here. Wakes the waiting batch, which
        times its next wakeup to the new job's deadline."""
        while not self.closed:
            while self.pending:
                job = self.pending.popleft()
                if job.job_id not in self.results:
                    self.inflight[job.job_id] = (job, worker_id,
                                                 time.monotonic())
                    self.lock.notify_all()
                    return job
            self.lock.wait()
        return None

    def record(self, result: JobResult) -> None:
        self.inflight.pop(result.job_id, None)
        self.results.setdefault(result.job_id, result)
        self.last_progress = time.monotonic()
        self.lock.notify_all()

    def requeue(self, job: Job) -> None:
        self.inflight.pop(job.job_id, None)
        if job.job_id not in self.results:
            self.pending.append(job)
            self.lock.notify_all()

    def expire(self, now: float) -> float:
        """Requeue every in-flight job past its deadline or whose worker
        has been silent for LIVENESS_TIMEOUT_S; returns when the next of
        the others would expire."""
        soonest = math.inf
        for job, wid, started in list(self.inflight.values()):
            heard = max(self.worker_seen.get(wid, 0.0), started)
            expires = min(started + job.deadline_s, heard + LIVENESS_TIMEOUT_S)
            if now >= expires:
                self.requeue(job)
            else:
                soonest = min(soonest, expires)
        return soonest


class Coordinator:
    """The listening socket and worker connections of one run.

    One accept thread, and one handler thread per connected worker, live
    from construction to `close`, so workers stay connected across the
    run's batches; the run passes this object to `serve_coordinator` for
    each batch. Closing, on success or on error, sends every connected
    worker one shutdown, closes the listener and joins the threads. Use
    it as a context manager around the run.
    """

    def __init__(self, bind_addr: str):
        host, port = parse_addr(bind_addr)
        self.state = _CoordinatorState()
        self.conns: set[socket.socket] = set()
        self.idle: set[socket.socket] = set()  # handlers waiting for a job
        self.handlers: list[threading.Thread] = []
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self.server.bind((host, port))
            self.server.listen(64)
        except OSError:
            self.server.close()
            raise
        self.acceptor = threading.Thread(
            target=self._accept, name="evomtl-coordinator-accept", daemon=True)
        self.acceptor.start()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        st = self.state
        with st.lock:
            if st.closed:
                return
            st.closed = True
            st.lock.notify_all()
            # wake every handler blocked reading its worker
            for conn in self.conns - self.idle:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        try:
            self.server.shutdown(socket.SHUT_RDWR)  # wakes accept()
        except OSError:
            pass
        self.server.close()
        self.acceptor.join()
        # the accept thread is gone, so the handler list is final
        for t in self.handlers:
            t.join()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self.server.accept()
            except OSError:
                return  # the listener was shut down by close()
            t = threading.Thread(target=self._serve_worker, args=(conn,),
                                 name="evomtl-coordinator-worker", daemon=True)
            with self.state.lock:
                self.conns.add(conn)
                self.handlers = [h for h in self.handlers if h.is_alive()]
                self.handlers.append(t)
                t.start()

    def _serve_worker(self, conn: socket.socket) -> None:
        """Feed one worker jobs until the coordinator closes. A job whose
        worker disconnects or sends a bad result goes back in the queue."""
        st = self.state
        conn.settimeout(LIVENESS_TIMEOUT_S)
        job = None
        try:
            hello = recv_frame(conn)
            if not hello or hello.get("kind") != "hello":
                return
            worker_id = str(hello.get("worker_id", "?"))
            with st.lock:
                st.heard_from(worker_id)
            while True:
                with st.lock:
                    self.idle.add(conn)
                    job = st.next_job(worker_id)
                    self.idle.discard(conn)
                if job is None:
                    break
                send_frame(conn, {"kind": "job", **to_obj(job)})
                result = self._await_result(conn, worker_id, job)
                with st.lock:
                    st.record(result)
                job = None
        except (ConnectionError, OSError):
            pass
        finally:
            with st.lock:
                if job is not None:
                    st.requeue(job)
                self.conns.discard(conn)
                closing = st.closed
            if closing:
                _send_shutdown(conn)
            conn.close()

    def _await_result(self, conn: socket.socket, worker_id: str,
                      job: Job) -> JobResult:
        """The worker's result for `job`, recording its heartbeats. A
        result that does not parse, or answers another job, is treated
        like a broken connection."""
        while True:
            msg = recv_frame(conn)
            if msg is None:
                raise ConnectionError("worker disconnected")
            if msg.get("kind") == "heartbeat":
                with self.state.lock:
                    self.state.heard_from(worker_id)
            elif msg.get("kind") == "result":
                try:
                    result = from_obj(JobResult, msg.get("result"), "result")
                except ParseError as e:
                    raise ConnectionError(f"malformed result: {e}") from e
                if result.job_id != job.job_id:
                    raise ConnectionError(f"result for job {result.job_id}, "
                                          f"dispatched {job.job_id}")
                result.worker_id = worker_id
                return result


def _send_shutdown(conn: socket.socket) -> None:
    """Release a worker, then wait briefly for it to hang up first: the
    side that closes first keeps the connection in TIME_WAIT, and on the
    worker's side that does not hold the coordinator's port."""
    try:
        send_frame(conn, {"kind": "shutdown"})
        conn.settimeout(1.0)
        while recv_frame(conn) is not None:
            pass
    except OSError:
        pass


def serve_coordinator(coordinator: Coordinator, jobs: list[Job],
                      global_timeout_s: float | None = None
                      ) -> list[JobResult]:
    """Distribute one batch of jobs to the workers of `coordinator`;
    returns one result per job, in job order, as soon as the last one is
    recorded.

    At-least-once semantics: a job whose worker disconnects, goes silent
    past the liveness timeout, or blows its deadline goes back in the
    queue; the first result recorded for a job_id wins and duplicates are
    discarded. Raises HarnessError once no worker has sent a hello,
    heartbeat or result for `global_timeout_s`, counted from the start of
    the batch, so a slow but live generation runs on. By default that is
    the longest job deadline, and never less than the liveness timeout,
    within which a live worker always heartbeats.
    """
    if global_timeout_s is None:
        global_timeout_s = max([j.deadline_s for j in jobs]
                               + [LIVENESS_TIMEOUT_S])
    st = coordinator.state
    with st.lock:
        st.last_progress = time.monotonic()
        st.pending.extend(j for j in jobs if j.job_id not in st.results)
        st.lock.notify_all()
        while True:
            if st.closed:
                raise HarnessError("coordinator closed mid-batch")
            now = time.monotonic()
            next_expiry = st.expire(now)
            if all(j.job_id in st.results for j in jobs):
                break
            give_up = st.last_progress + global_timeout_s
            if now >= give_up:
                if not st.worker_seen:
                    raise HarnessError(
                        f"no workers connected within {global_timeout_s}s")
                raise HarnessError(f"jobs unfinished: no worker progress "
                                   f"for {global_timeout_s}s")
            st.lock.wait(min(next_expiry, give_up) - now)
        return [st.results[j.job_id] for j in jobs]


def distributed_evaluator(coordinator: Coordinator):
    """Evaluator callable: each call is one `serve_coordinator` batch on
    the run's `coordinator`."""
    def evaluate(jobs: list[Job]) -> list[JobResult]:
        return serve_coordinator(coordinator, jobs)
    return evaluate


# --- worker ---------------------------------------------------------------------


def run_worker(coordinator_addr: str | None = None,
               worker_id: str | None = None,
               max_backoff_s: float = 60.0,
               give_up_after_s: float | None = None) -> int:
    """Connect, evaluate jobs until a shutdown message, exit 0.

    Evaluation errors become failed results and the worker survives. A
    garbage frame, or a job frame that does not decode as a `Job`, drops
    the connection; connection loss triggers reconnection with
    exponential backoff (1s doubling up to max_backoff_s).
    """
    addr = coordinator_addr or os.environ.get(ADDR_ENV_VAR)
    if not addr:
        raise HarnessError(
            f"no coordinator address given and ${ADDR_ENV_VAR} unset")
    host, port = parse_addr(addr)
    wid = worker_id or f"worker-{os.getpid()}"
    backoff = 1.0
    started = time.monotonic()
    while True:
        if (give_up_after_s is not None
                and time.monotonic() - started > give_up_after_s):
            return 1
        try:
            sock = socket.create_connection((host, port), timeout=10.0)
        except OSError:
            time.sleep(min(backoff, max_backoff_s))
            backoff = min(backoff * 2, max_backoff_s)
            continue
        # the timeout bounds the connect only: an idle worker may wait for
        # its next job as long as the run lasts; heartbeats expose a dead
        # peer
        sock.settimeout(None)
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
        # one dataset scope per connection: the jobs of one run share
        # their corpus, and a reconnect, possibly to a later run, rebuilds
        try:
            with dataset_scope():
                send_frame(sock, {"kind": "hello", "worker_id": wid},
                           send_lock)
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
                    del msg["kind"]
                    try:
                        job = from_obj(Job, msg, "job")
                    except ParseError:
                        break  # a malformed job frame: reconnect
                    result = evaluate_local(job, worker_id=wid)
                    send_frame(sock, {"kind": "result",
                                      "result": result.to_obj()}, send_lock)
        except OSError:
            pass
        finally:
            stop_beat.set()
            sock.close()
