"""The acceptance recipe's runner: spawned jobs match in-process ones on a tiny
world, and no worker outlives its caller."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import recipe


# The seed-7 acceptance world's digest as numpy 2.4.6 generates it. Every
# recorded digest and criterion value starts from this world, so a numpy
# whose Generator stream differs fails here first, by name.
ACCEPTANCE_WORLD_SHA = "90a2529cf30e6edfe29394850c7ee7cb59e8cb63851dc4da89eafe8f4c205500"


def test_acceptance_world_is_the_recorded_one():
    from textent.synthetic import generate_synthetic

    world = generate_synthetic(recipe.world_spec(tiny=False))
    assert recipe.world_digest(world) == ACCEPTANCE_WORLD_SHA


def _without_seconds(job):
    return {k: v for k, v in job.items() if k != "seconds"}


def test_spawned_jobs_compute_what_in_process_jobs_compute():
    env = {var: os.environ.get(var) for var in recipe.BLAS_ENV}
    results = recipe.run_jobs([("dual", 11), ("full", 12)], tiny=True)
    assert list(results) == [("dual", 11), ("full", 12)]
    assert multiprocessing.active_children() == []
    assert {var: os.environ.get(var) for var in recipe.BLAS_ENV} == env
    for (variant, seed), job in results.items():
        assert job["seconds"]["pretrain"] > 0
        assert _without_seconds(job) == _without_seconds(
            recipe.run_job(variant, seed, tiny=True))
    assert len(results["dual", 11]["digests"]["pretrain.dual.params"]) == 64
    assert {"mrr", "open", "open_tags"} <= set(results["dual", 11])
    assert "mrr" in results["full", 12]
    assert not {"open", "open_tags"} & set(results["full", 12])


def test_failing_job_names_variant_and_seed():
    # in a child process, so that a runner that hangs fails at the timeout
    code = ("import multiprocessing, recipe\n"
            "try:\n"
            "    recipe.run_jobs([('dual', 11), ('nope', 13)], tiny=True)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "    print(len(multiprocessing.active_children()))\n")
    path = os.pathsep.join([str(Path(recipe.__file__).parent), str(recipe.SRC)])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120, check=True, env=dict(os.environ, PYTHONPATH=path))
    message, children = run.stdout.splitlines()
    assert message.startswith("job nope at training seed 13 failed: DataError(")
    assert "unknown variant 'nope'" in message
    assert children == "0"




def _stat(pid: int) -> list[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name (state first)."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _spawned_workers(caller: int) -> list[int]:
    """Pids of the ``multiprocessing`` spawn workers whose parent is ``caller``."""
    pids = []
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            if (int(_stat(int(proc.name))[1]) == caller
                    and b"spawn_main" in (proc / "cmdline").read_bytes()):
                pids.append(int(proc.name))
        except (OSError, IndexError, ValueError):
            continue  # the process ended while it was read
    return pids


def _cpu_seconds(pid: int) -> float:
    fields = _stat(pid)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _running(pid: int) -> bool:
    try:
        return _stat(pid)[0] != "Z"
    except FileNotFoundError:
        return False


def _wait_for(probe, timeout: float, what: str):
    """``probe()``'s first truthy value, polled every 0.1 s up to ``timeout``."""
    deadline = time.monotonic() + timeout
    while not (value := probe()):
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out after {timeout} s waiting for {what}")
        time.sleep(0.1)
    return value


def test_workers_end_when_the_caller_is_killed():
    # full-size jobs, so that both are still training when the caller dies
    code = "import recipe\nrecipe.run_jobs([('dual', 11), ('hybrid', 11)])\n"
    path = os.pathsep.join([str(Path(recipe.__file__).parent), str(recipe.SRC)])
    caller = subprocess.Popen([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=path))

    def two_workers():
        pids = _spawned_workers(caller.pid)
        return pids if len(pids) == 2 else None

    workers: list[int] = []
    try:
        workers = _wait_for(two_workers, 60, "two workers")
        _wait_for(lambda: all(_cpu_seconds(pid) > 2.0 for pid in workers), 120,
                  "both jobs to start training")  # past the imports
        caller.kill()
        caller.wait(timeout=10)
        _wait_for(lambda: not any(map(_running, workers)), 10, f"workers {workers} to end")
    finally:
        caller.kill()
        caller.wait(timeout=10)
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
