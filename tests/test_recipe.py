"""The acceptance recipe's runner on a tiny world: spawned jobs match in-process ones."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import recipe


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
    assert len(results["dual", 11]["params_sha"]) == 64
    assert {"mrr", "open", "open_tags"} <= set(results["dual", 11])
    assert not {"mrr", "open", "open_tags"} & set(results["full", 12])


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

