"""Seeded, stratified task lists for the three benchmark workloads.

A workload is a list of strata: (command kind, size class, tasks per
round, generator).  One round holds exactly the stated number of tasks
of every stratum, in an order shuffled by the round's own generator, so
every complete round has the same mix and only the concrete inputs and
their order depend on the seed.  Round r of seed s is generated from
``random.Random(f"{workload}:{s}:{r}")`` and is independent of how many
rounds ran before it.

A generator is called as ``gen(rng, draw)``, where ``draw`` is (seed,
index of the draw within its stratum).  The subdigon and Raney enumerate
strata use it to walk a seed-shuffled pool without repeats (``_cycle``):
the program memoizes subdigon counts and lists across tasks, so every new
type grows its memo tables and a run meets as many new types as its pools
allow; and every seed meets the largest Raney lists early, so peak memory
after a fixed number of rounds hardly depends on the seed.

Every generated input lies inside the documented domain of its command
(the invalid-input defects of the CLI are out of scope here).  This
module imports nothing from the program: tasks carry the expected facts
their checker needs in ``meta``.

``python3 bench/run.py --workload trees --seed 1 --list`` prints a seed's
first round with counts per kind and size class (a dry run).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

WORKLOADS = ("layering", "closed-form", "trees")


@dataclass(frozen=True)
class Task:
    kind: str
    size: str
    argv: tuple[str, ...]
    meta: dict

    def line(self) -> str:
        return " ".join(self.argv)


# -- closed forms used to pick inputs by size --------------------------------


def type_count(counts: dict[int, int]) -> int:
    """Hyper-Catalan closed form (E-1)!/((V-1)! prod m_k!)."""
    v = 2 + sum((k - 1) * m for k, m in counts.items())
    e = 1 + sum(k * m for k, m in counts.items())
    den = factorial(v - 1)
    for m in counts.values():
        den *= factorial(m)
    return factorial(e - 1) // den


def list_count(n: int, m1: int, tail: dict[int, int]) -> int:
    """Raney's count n (m-1)!/(m0! m1! m2! ...) of n-word lists."""
    m0 = n + sum((k - 1) * m for k, m in tail.items())
    length = m0 + m1 + sum(tail.values())
    den = factorial(m0) * factorial(m1)
    for m in tail.values():
        den *= factorial(m)
    return n * factorial(length - 1) // den


def _types(max_faces: int, arities: tuple[int, ...]) -> list[dict[int, int]]:
    """All type vectors over the given arities with 1..max_faces faces."""
    out: list[dict[int, int]] = [{}]
    for k in arities:
        out = [
            {**t, k: m} if m else t
            for t in out
            for m in range(max_faces - sum(t.values()) + 1)
        ]
    return [t for t in out if t]


def _type_arg(counts: dict[int, int]) -> str:
    top = max(counts)
    return ",".join(str(counts.get(k, 0)) for k in range(2, top + 1))


# the subdigon pools are whole ranges (lists up to 6 faces of arity up to
# 7, counts up to 14 faces), walked without repeats, so the program's memo
# tables grow through a run and the recursion stays in the timed figures
_LIST_TYPES = sorted(
    ((type_count(t), sorted(t.items())) for t in _types(6, (2, 3, 4, 5, 6, 7))),
)
_COUNT_TYPES = sorted(
    (sum(t.values()), sorted(t.items())) for t in _types(14, (2, 3, 4))
)
_RANEY_COMPOSITIONS = sorted(
    (list_count(n, m1, t), n, m1, sorted(t.items()))
    for n in (1, 2, 3)
    for m1 in range(4)
    for t in _types(6, (2, 3, 4)) + [{}]
    if 1 < list_count(n, m1, t) <= 5000
)


# -- generators: rng -> (argv, meta) --------------------------------------------------


def _layered(command: str, options, formats=None):
    """Pick one (measure, d, q) of similar cost, and a format for tables."""
    def gen(rng: random.Random, _draw):
        measure, d, q = rng.choice(options)
        argv = [command, "--measure", measure, "--d", str(d)]
        if q is not None:
            argv += ["--q", str(q)]
        fmt = None
        if formats is not None:
            fmt = rng.choice(formats)
            argv += ["--format", fmt]
        return argv, {"measure": measure, "d": d, "q": q, "format": fmt}
    return gen


def _solve(n_coeffs: int, measure: str, ds, exact: bool):
    def gen(rng: random.Random, _draw):
        # small coefficients keep every task inside the convergence region
        coeffs = [Fraction(1, rng.randint(6 * n_coeffs + 4 * k, 12 * n_coeffs + 8 * k))
                  for k in range(n_coeffs)]
        d = rng.choice(ds)
        argv = ["solve", "--coeffs", ",".join(str(c) for c in coeffs),
                "--measure", measure, "--d", str(d)]
        if not exact:
            argv.append("--float")
        return argv, {"coeffs": coeffs, "exact": exact}
    return gen


def _coeff(max_count: int):
    def gen(rng: random.Random, _draw):
        ks = rng.sample(range(2, 8), rng.randint(1, 4))
        counts = {k: rng.randint(1, max_count) for k in ks}
        r = rng.randint(1, 9)
        argv = ["coeff", "--type", _type_arg(counts), "--central", "--power", str(r)]
        return argv, {"type": counts, "power": r}
    return gen


def _identity(rs, orders):
    def gen(rng: random.Random, _draw):
        r, order = rng.choice(rs), rng.choice(orders)
        argv = ["powers", "--identity", str(r), "--order", str(order)]
        return argv, {}
    return gen


def _catalan_power(rs, ms):
    def gen(rng: random.Random, _draw):
        r, m = rng.choice(rs), rng.choice(ms)
        argv = ["powers", "--r", str(r), "--m", str(m)]
        return argv, {"r": r, "m": m}
    return gen


def _cycle(pool: list, name: str):
    """pick(seed, i): item i mod len(pool) of the pool shuffled for the seed,
    so a run meets every item once before any repeats."""
    orders: dict[int, list] = {}

    def pick(seed: int, i: int):
        if seed not in orders:
            orders[seed] = random.Random(f"{name}:{seed}").sample(pool, len(pool))
        order = orders[seed]
        return order[i % len(order)]
    return pick


def _subdigon_count(faces):
    pick = _cycle([t for f, t in _COUNT_TYPES if f in faces], f"count:{faces}")

    def gen(rng: random.Random, draw):
        counts = dict(pick(*draw))
        argv = ["subdigons", "--type", _type_arg(counts)]
        return argv, {"type": counts}
    return gen


def _subdigon_list(lo: int, hi: int):
    pick = _cycle([t for c, t in _LIST_TYPES if lo < c <= hi], f"list:{lo}-{hi}")

    def gen(rng: random.Random, draw):
        counts = dict(pick(*draw))
        fmt = rng.choice(("list", "json"))
        argv = ["subdigons", "--type", _type_arg(counts), "--format", fmt]
        return argv, {"type": counts, "format": fmt}
    return gen


def _raney_enumerate(lo: int, hi: int):
    pick = _cycle([c for c in _RANEY_COMPOSITIONS if lo < c[0] <= hi], f"raney:{lo}-{hi}")

    def gen(rng: random.Random, draw):
        _, n, m1, tail = pick(*draw)
        argv = ["raney", "enumerate", "--n", str(n), "--m1", str(m1)]
        for k, m in tail:
            argv += [f"--m{k}", str(m)]
        return argv, {"n": n, "m1": m1, "tail": dict(tail)}
    return gen


def is_word_list(sigma, n: int) -> bool:
    """Prefix-rank scan: rank -n and no proper prefix of rank <= -n."""
    cum = 0
    for i, a in enumerate(sigma):
        cum += a - 1
        if cum <= -n and i + 1 < len(sigma):
            return False
    return bool(sigma) and cum == -n


def _shuffled_list(rng: random.Random, faces, words) -> tuple[list[int], int]:
    """A random arrangement of the symbols of n subdigon words.

    By the cycle lemma it is a rotation of exactly n word lists.
    """
    n = rng.choice(words)
    arities = [rng.choice((2, 2, 3, 3, 4, 5)) for _ in range(rng.choice(faces))]
    sigma = arities + [0] * (n + sum(a - 1 for a in arities))
    rng.shuffle(sigma)
    return sigma, n


def _raney_string(command: str, faces, words):
    def gen(rng: random.Random, _draw):
        sigma, n = _shuffled_list(rng, faces, words)
        text = "".join(map(str, sigma))
        argv = ["raney", command, text] + (["--cyclic"] if command == "identify" else [])
        return argv, {"sigma": sigma, "n": n}
    return gen


def _raney_check(faces, words, want: bool):
    def gen(rng: random.Random, _draw):
        sigma, n = _shuffled_list(rng, faces, words)
        offsets = [o for o in range(len(sigma)) if is_word_list(sigma[o:] + sigma[:o], n)]
        if want:
            o = rng.choice(offsets)
        else:
            o = rng.choice([o for o in range(len(sigma)) if o not in offsets])
        sigma = sigma[o:] + sigma[:o]
        argv = ["raney", "check", "".join(map(str, sigma)), "--n", str(n)]
        return argv, {"sigma": sigma, "n": n, "want": want}
    return gen


# -- workloads: (kind, size class, tasks per round, generator) ---------------

_FORMATS = ("text", "csv", "json")


def _v(*ds):
    return [("vertex", d, None) for d in ds]


def _e(*ds):
    return [("edge", d, None) for d in ds]


def _f(*qds):
    return [("face", d, q) for q, d in qds]


def _layering_strata():
    # each size class mixes measures at depths of similar cost (within
    # about 1.4x on the seed commit), so the seed moves the mix little
    verify = [
        ("S", 2, _v(3, 4) + _e(4, 5, 6) + _f((3, 2), (4, 2), (3, 3))),
        ("M1", 2, _v(5) + _e(7, 8) + _f((5, 2), (3, 5), (4, 3), (3, 6), (6, 2))),
        ("M2", 1, _v(6) + _e(9) + _f((5, 3), (4, 4))),
        ("M3", 1, _v(7) + _e(10) + _f((6, 3))),
        ("L1", 2, _v(8) + _e(11) + _f((4, 5), (5, 4))),
        ("L2", 1, _v(9) + _e(12) + _f((6, 4), (5, 5))),
        ("XL", 1, _v(10) + _e(14) + _f((5, 6))),
        ("XXL", 1, _v(11) + _f((6, 5))),
    ]
    table = [
        ("S", 1, _v(3) + _e(4, 5) + _f((3, 2), (3, 3), (4, 2))),
        ("M", 1, _v(5) + _e(6, 7) + _f((4, 3), (6, 2), (3, 5))),
        ("L1", 1, _v(6) + _e(8) + _f((4, 4), (5, 3))),
        ("L2", 1, _v(7) + _e(9) + _f((4, 5), (6, 3))),
        ("XL", 1, _v(8) + _e(11) + _f((6, 4), (5, 5))),
        ("XXL", 1, _v(9) + _e(12)),
    ]
    return (
        [("verify", size, n, _layered("verify", opts)) for size, n, opts in verify]
        + [("table", size, n, _layered("table", opts, _FORMATS)) for size, n, opts in table]
    )


def _closed_form_strata():
    out = []
    for exact in (True, False):
        for measure in ("vertex", "edge"):
            kind = f"solve-{'exact' if exact else 'float'}-{measure}"
            vertex = measure == "vertex"
            out += [
                (kind, "c1", 1, _solve(1, measure, range(150, 201), exact)),
                (kind, "c2", 1, _solve(2, measure, range(35, 46), exact)),
                (kind, "c3", 1, _solve(3, measure, range(25, 31) if vertex else range(30, 37), exact)),
                (kind, "c4", 1, _solve(4, measure, range(18, 23) if vertex else range(30, 37), exact)),
            ]
    return out + [
        ("coeff", "S", 2, _coeff(8)),
        ("coeff", "L", 2, _coeff(60)),
        ("powers-identity", "S", 2, _identity(range(4, 9), range(15, 26))),
        ("powers-identity", "L", 1, _identity(range(24, 29), range(40, 51))),
        ("powers-coeff", "S", 2, _catalan_power(range(1, 10), range(0, 60))),
    ]


def _trees_strata():
    # about a third tiny tasks (parser-bound), half mid-sized and a fifth
    # large ones of like cost, so that p50 and p90 fall inside a cluster
    small, large, words = range(4, 11), range(60, 81), (1, 2, 3)
    return [
        ("subdigons-count", "S", 1, _subdigon_count(range(4, 7))),
        ("subdigons-count", "M", 1, _subdigon_count(range(8, 11))),
        ("subdigons-count", "L", 1, _subdigon_count(range(12, 15))),
        ("subdigons-list", "S", 1, _subdigon_list(20, 200)),
        ("subdigons-list", "M", 3, _subdigon_list(300, 900)),
        ("subdigons-list", "L", 2, _subdigon_list(1800, 3000)),
        ("raney-enumerate", "S", 1, _raney_enumerate(10, 100)),
        ("raney-enumerate", "M", 3, _raney_enumerate(300, 800)),
        ("raney-enumerate", "L", 2, _raney_enumerate(2000, 4000)),
        ("raney-identify", "S", 1, _raney_string("identify", small, words)),
        ("raney-identify", "L", 3, _raney_string("identify", large, words)),
        ("raney-rotations", "S", 1, _raney_string("rotations", small, words)),
        ("raney-rotations", "L", 3, _raney_string("rotations", large, words)),
        ("raney-check", "S-yes", 1, _raney_check(small, words, True)),
        ("raney-check", "L-no", 1, _raney_check(large, words, False)),
    ]


STRATA = {
    "layering": _layering_strata(),
    "closed-form": _closed_form_strata(),
    "trees": _trees_strata(),
}


def round_tasks(workload: str, seed: int, r: int) -> list[Task]:
    """Round r of a seed: a fixed count per stratum, seed-chosen inputs and order."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    tasks = [
        Task(kind, size, tuple(argv), meta)
        for kind, size, count, gen in STRATA[workload]
        for argv, meta in (gen(rng, (seed, r * count + j)) for j in range(count))
    ]
    rng.shuffle(tasks)
    return tasks


def rounds(workload: str, seed: int):
    """Endless stream of rounds for a seed."""
    r = 0
    while True:
        yield round_tasks(workload, seed, r)
        r += 1


def listing(workload: str, seed: int, n_rounds: int) -> str:
    """Dry run: every task of the first rounds plus counts per kind and size."""
    lines = []
    counts: Counter = Counter()
    for r in range(n_rounds):
        for task in round_tasks(workload, seed, r):
            counts[(task.kind, task.size)] += 1
            lines.append(f"round {r:>3}  {task.kind:<18} {task.size:<6} {task.line()}")
    lines.append(f"{'kind':<18} {'size':<6} tasks")
    for (kind, size), n in sorted(counts.items()):
        lines.append(f"{kind:<18} {size:<6} {n}")
    lines.append(f"total {sum(counts.values())} tasks in {n_rounds} rounds")
    return "\n".join(lines)

