"""The allocator policy set at the process entry points.

`harness.set_allocator_policy` is process-wide, and other tests call
`cli.main`, so the fault count is taken in a fresh interpreter.
"""

import ctypes
import os
import socket
import subprocess
import sys

import pytest

from evomtl import harness
from test_fingerprints import COMMANDS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

# runs `evomtl run ARGV` three times in one process and prints the minor
# page faults the third run took
THIRD_RUN_FAULTS = """
import contextlib, io, resource, sys, tempfile
from evomtl.cli import main
with tempfile.TemporaryDirectory() as tmp, \\
        contextlib.redirect_stdout(io.StringIO()):
    for i in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(["run", *sys.argv[1:], "--out", f"{tmp}/{i}"]) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="libc has no mallopt")
@pytest.mark.parametrize("argv", [
    "--algorithm cm --synth 3x3x12 --seed 11 --profile desk "
    "--networks-per-gen 4 --train-iters 4 --generations 2 --long-iters 4",
    COMMANDS["cmsr"],
], ids=["cm", "cmsr-fingerprint"])
def test_a_warm_search_faults_in_no_freed_memory(argv):
    # without the policy glibc returned each scoring chunk's temporaries
    # to the kernel and faulted them in again: the third run took about
    # 14700 faults (cm) and 2350 (cmsr), against 10 to 13 with it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", THIRD_RUN_FAULTS,
                          *argv.split()],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    assert int(res.stdout) < 500


def test_a_worker_sets_the_allocator_policy(monkeypatch):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    calls = []
    monkeypatch.setattr(harness, "set_allocator_policy",
                        lambda: calls.append(None))
    assert harness.run_worker(f"127.0.0.1:{port}", give_up_after_s=0) == 1
    assert calls == [None]
