"""Output identity: every benchmark task of a fixed corpus prints what it printed before.

The corpus is rounds 0-39 of seeds 1-3 of each workload in ``bench/tasks.py``
(8,040 tasks).  Each (workload, seed) has one sha256 over the argv, exit code,
stdout and stderr of its tasks in order, run through ``cli.main`` in process.
``output_digests.json`` holds the digests; a change that alters any byte of
any task's output, or an exit code, changes its digest.  After a deliberate
change of output, ``python tests/test_outputs.py`` prints the new digests.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from hypercatalan import cli

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "output_digests.json"
SEEDS, ROUNDS = (1, 2, 3), 40


def _tasks_module():
    spec = importlib.util.spec_from_file_location("bench_tasks", HERE.parent / "bench" / "tasks.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(module)
    return module


TASKS = _tasks_module()


def digest(workload: str, seed: int) -> str:
    """sha256 over (argv, exit code, stdout, stderr) of every task of the corpus, in order."""
    h = hashlib.sha256()
    for r in range(ROUNDS):
        for task in TASKS.round_tasks(workload, seed, r):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(task.argv))
                except SystemExit as exc:
                    code = exc.code
            h.update(json.dumps([task.argv, code, out.getvalue(), err.getvalue()]).encode())
            h.update(b"\n")
    return h.hexdigest()


def _corpus():
    return [(w, s) for w in TASKS.WORKLOADS for s in SEEDS]


@pytest.mark.parametrize("workload, seed", _corpus())
def test_bench_outputs_are_unchanged(workload, seed):
    assert digest(workload, seed) == json.loads(DIGESTS.read_text())[f"{workload}:{seed}"]


if __name__ == "__main__":
    print(json.dumps({f"{w}:{s}": digest(w, s) for w, s in _corpus()}, indent=2))
