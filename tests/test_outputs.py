"""Output identity: what the command line prints, pinned byte for byte.

The corpus is rounds 0-39 of seeds 1-3 of each workload in ``bench/tasks.py``
(8,040 tasks): one sha256 per (workload, seed, round) over the argv, exit code,
stdout and stderr of its tasks in order, held in ``output_digests.json`` as a
list of 40 per "workload:seed", so a failure names its rounds.  ``ROWS`` are
single command lines, each with its environment, exit code, stderr, and stdout
or its sha256.  Both run ``cli.main`` in process; a row with a timeout, or one
whose stdout closes after a line (``| head -n 1``), runs in a subprocess of
``sys.executable`` with this interpreter's ``-O``, as CI runs the file.  After a
deliberate change of output, ``python tests/test_outputs.py`` prints every
digest as lines of ``<sha256>  <name>``, a round's name being ``workload:seed:round``;
``python tests/test_outputs.py --update`` rewrites ``output_digests.json`` and prints
only what changed: each such round's name, and each such ``PINS`` row as its new line,
for a hand edit of ``PINS``.
The corpus's ``solve`` tasks are also checked to converge, in exact Fractions.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import takewhile, zip_longest
from pathlib import Path
from unittest import mock

import pytest

from hypercatalan import cli, geode_quotient, series

HERE = Path(__file__).resolve().parent
SEEDS, ROUNDS = (1, 2, 3), 40
_SPEC = importlib.util.spec_from_file_location("bench_tasks", HERE.parent / "bench" / "tasks.py")
TASKS = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)  # for its dataclass
_SPEC.loader.exec_module(TASKS)
DIGESTS = json.loads((HERE / "output_digests.json").read_text())
CORPUS = [(w, s) for w in TASKS.WORKLOADS for s in SEEDS]


def _main(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in process; a SystemExit is read as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digests(workload: str, seed: int) -> list[str]:
    """Per round, the sha256 over (argv, exit code, stdout, stderr) of its tasks, in order."""
    out = []
    for r in range(ROUNDS):
        h = hashlib.sha256()
        for task in TASKS.round_tasks(workload, seed, r):
            h.update(json.dumps([task.argv, *_main(task.argv)]).encode())
            h.update(b"\n")
        out.append(h.hexdigest())
    return out


@pytest.mark.parametrize("workload, seed", CORPUS)
def test_bench_outputs_are_unchanged(workload, seed):
    pairs = zip(digests(workload, seed), DIGESTS[f"{workload}:{seed}"], strict=True)
    changed = [r for r, (got, want) in enumerate(pairs) if got != want]
    assert changed == [], f"{workload}:{seed} output changed in rounds {changed}"


# the one corpus task whose zero diverges: bench/tasks.py draws its four values too large
DIVERGENT = ["solve --coeffs 1/25,1/34,1/33,1/37 --measure vertex --d 21"]


def test_every_bench_solve_task_but_one_converges():
    # every C_m >= 0, so the zero converges at t iff f(y) = 1 - y + sum_k |t_k| y^k has a root
    # y > 0; f(0) = 1, so some y = i/64 with f(y) <= 0 shows one.  Where none does, f' >= -1
    # keeps f above f(i/64) - 1/64 up to (i+1)/64, and f is convex, so f(4) > 0 with f'(4) >= 0
    # keeps it above 0 past 4: no root, and the task diverges
    tasks = [task for seed in SEEDS for r in range(ROUNDS)
             for task in TASKS.round_tasks("closed-form", seed, r) if task.argv[0] == "solve"]
    assert len(tasks) == 1920
    ys, diverging = [Fraction(i, 64) for i in range(257)], []
    for task in tasks:
        t = [abs(Fraction(c)) for c in task.argv[task.argv.index("--coeffs") + 1].split(",")]
        f = lambda y: 1 - y + sum(tk * y**k for k, tk in enumerate(t, 2))
        if any(f(y) <= 0 for y in ys[1:]):
            continue
        slope = -1 + sum(k * tk * 4 ** (k - 1) for k, tk in enumerate(t, 2))
        assert all(f(y) > Fraction(1, 64) for y in ys[:256]) and slope >= 0, task.line()
        diverging.append(task.line())
    assert diverging == DIVERGENT


class Sha(str):
    """The sha256 of a row's stdout, in hex, where the row does not give the text."""


def row(argv, out, code=0, err="", env=(), timeout=None, head=False):
    """A case of test_row, named by its command line; an argv string is split at its spaces.
    out is stdout or its Sha (of a head row, the line read before the pipe closed), err all of
    stderr, env (name, value) pairs; a timeout, in seconds, or head runs argv in a subprocess."""
    argv = tuple(argv.split() if isinstance(argv, str) else argv)
    words = (w if len(w) <= 40 else f"<{len(w)} chars>" for w in argv)
    name = " ".join([*(f"{k}={v}" for k, v in env), *words]) + " | head -n 1" * head
    return pytest.param(argv, out, code, err, env, timeout, head, id=name)


def pin(line: str):
    """The row of a PINS line: the sha256 of stdout, two spaces, NAME=value words, argv."""
    sha, _, words = line.partition("  ")
    env = [tuple(w.split("=", 1)) for w in takewhile(lambda w: w[:1].isupper(), words.split())]
    return row(words.split()[len(env):], Sha(sha), env=tuple(env))


def run(argv, env=(), timeout=None, head=False):
    """(exit code, stdout, stderr) of a row; COLUMNS and PYTHONUNBUFFERED are the row's or unset."""
    kept = {k: v for k, v in os.environ.items() if k not in ("COLUMNS", "PYTHONUNBUFFERED")}
    env = kept | dict(env)
    if timeout is None and not head:
        with mock.patch.dict(os.environ, env, clear=True):
            return _main(argv)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    argv = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "hypercatalan.cli", *argv]
    if not head:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=timeout)
        return proc.returncode, proc.stdout, proc.stderr
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env=env) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), line, err


# rows that exit 0 with empty stderr, as `python tests/test_outputs.py` prints them; '#' comments
PINS = """\
075eb30a06088223f2ee39f1966b3ac348848dbac80346c0c6e3bae6837ebb8e  COLUMNS=80 --help
4273b0231f9ee4d1157e4ff59a3b8f2e8c9e6e63e6c2265f37a47c5c8eab0ac5  COLUMNS=80 coeff --help
f67d68957986d84346ea8947aa2442bcbb792887f7e974c68f5c83f9a72fcc53  COLUMNS=80 table --help
05c1f7cf50d4ae1dc4e0f3911f5b4b59b72777d9f17ad7669ad2b93d2c817378  COLUMNS=80 verify --help
8dc0addfc6d8c285cf0296fc8dc28e9d00d08b9c9c25a11925b7cfee2c3937a3  COLUMNS=80 solve --help
5cee7d8726e5659a030f26aba1705e4c9a57df9bb7c749136e89584a5bca9782  COLUMNS=80 subdigons --help
48547ec8c26524b86e215a81f23da0adbe949a67148adfb0035ab53d89494dd8  COLUMNS=80 raney --help
08310484d560c68ce372d088947b35cfeb51547bebdb7d3d2c700bb2ce87960b  COLUMNS=80 powers --help
6a13c0331db4a4402d1f29480f7f87ae432526e23fd6d681d5c77dccb4811356  COLUMNS=80 raney rank --help
6a6cbe366028c789d3f367e3b307fa7f7ea9ce7affc6a1c7cc770b8b06430e6a  COLUMNS=80 raney rotations --help
ad63a9051d6412b7b167dedffcf755eaebc6f9ea7044e64bba8f61d147d38514  COLUMNS=80 raney check --help
ca93d9e53dfc06b42e3134d245ffd153ae8716688ccbfc7d73582ab2768c7e91  COLUMNS=80 raney identify --help
c01a1d9f6a770e44cb69d738bd8ac66f552e5229d13ceecbaab4ef4f6226fbec  COLUMNS=80 raney enumerate --help
ae4a0cbb9fe2a18da3becaf21d8f050c27c98c4d2aa6254d9f8342fe9058f673  table --measure edge --d 10 --format csv
fae0dfd51c747c21dbba69767f279551c73a248be28950bc8e1b8002facaa871  table --measure face --d 4 --q 3 --format json
389f7b7468f7da49c55bc047401d13f1af44d6f912d9e4308878ffcff993a2ff  table --measure face --d 4 --q 3
f7007f4fc60dcd51bb8e728e8977edf5a3742bdf0ca900b279f34b94f759a1bf  table --measure vertex --d 11 --format json
b79e7203bd0b21c6eeaacca8b645ac40f5e0cae53ff2a6e649fddeb1a7381c5d  table --measure face --d 5 --q 6 --format text
5c34fc489baaabda51bb16dfab49a8b46368428cb8f1d9dac96748ebb29f537c  table --measure edge --d 14 --format csv
d9857a1125f1a97b7a8268fe2303670ac6f9f8e9d91c00832b50721209798f30  table --measure vertex --d 16 --format json
dcf43dd19d537ee5e673c9f48e18ea0288731c741aaa4a107f9006bf37d8ef3c  table --measure vertex --d 13 --format csv
665259a98fc3cc74bb9d8feeacc7e84ecab01ff96ccb5efebb8c437112f47b77  table --measure face --d 7 --q 4 --format json
d324986bdce1bdde51345ff60af882e30342baf879b60901477a43f7924eb934  table --measure edge --d 18
0e7d829fd15596fe1cd84953da74e9ea68aa344e2026b452f94ee7a8bcbb7ffe  coeff --type 35,0,0,0,1 --central --power 8
7b060b17953a5131c034cc15d102e11fab32c7df7467cbae8834d22b1f537d63  subdigons --type 150
1f208ef9ca6769f2c3d86b02eb2ad43981f12aad8c302b276d018fb339517b0d  subdigons --type 2,2,1,1 --format list
ba26e006057a11ec80e74288873bc38d75ef4cf9751742f98790e99b575f7aee  subdigons --type 2,2,1,1 --format json
b2ad39440f356f8a4cbaedb38ce6e8e6275be51911e08a59a30fdf4c88fcb4d1  raney enumerate --n 2 --m1 3 --m2 3 --m3 1
f6b1eaf5b1be4be766aab02ab4f609fc1eb720b187f6867b2ba26ed143d6a96b  raney enumerate --n 1 --m1 2 --m2 4 --m3 2
69d3597a4feb2caec7a9ef40f52f62f8bd574c1d7b65fcc116295ce2becc3e35  raney enumerate --n 2 --m1 1 --m2 1 --m4 1 --m9 1
b2d149c4f2c58b31f9b4b2b1e843bf0204ac086edabac1523d3f035a86820cef  solve --coeffs 1/5 --d 200
e2fbadfacadf6da16d5337ed97e98322594dfdc0743e2fdfad9b0704a47fc4e6  solve --coeffs=1/36,1/56,1/60,1/66 --measure edge --d 34
57734211b0977e139eb30c97867002a6c6978dd4960a2fd5dad459cd47df810f  solve --coeffs=1/7,1/11 --d 400
4ad298fd9298766bdb674c08cc94c5673e41155ebad701ad41736df6f3ec369e  solve --coeffs 1/13 --d 175
0ba252b845a4c893f4f5866df179ab2babd9580b30e4d532cee312405f6436df  solve --coeffs=1/12,-1/20 --measure edge --d 40
8198cca484a04ea6d4c42413f4f827a6488b2f300628dad01b59972913f14d9b  solve --coeffs 0,1/4 --d 5 --measure edge
e3f34dd426b9835ead74350f740fb4d80f93494425f142abd0c49951a524aacc  solve --coeffs 1/13,1/13 --measure face --d 30
a5bdf65bd0104ffa32717d386821b12f8fa56b1042fcdf42f71cda827eb68b10  solve --coeffs 1/13,1/13 --measure face --d 30 --float
2a91317358665e28274616e9182b2f5124f4aafe98ddcfd8e742dc2c8bad22e2  solve --coeffs 1/36,1/56,1/60,1/66 --measure edge --d 34 --float
230199bda9ee005c9aa501ac648a47ad421fd147643a0a5330048fb80ab49c90  solve --float --coeffs=1/36,1/56,1/60,1/66 --measure edge --d 60
2c1c4b9818205e14faa1778442874163107d65da465d8016a174282d07e96749  solve --float --coeffs 0.26 --d 600
# alpha = 1.12701665379, the root of a^2/10 - a + 1 = 0
3e34e91f0c6a52af37527476c3568c414af0beedc8d51bdfa2aad4d2ed9ef2d5  solve --float --coeffs 1/10 --d 700
# float level sums pinned bit for bit where R is one term c*mu^j, whose powers c^F are products
a785e04cf1b200c30d5556c237d319930bbee4d84501d0193511e6ec763f63fc  solve --float --coeffs 1/13 --d 175
00f44773e32fb8ce08c4735cd97d58dbe0d5d7da247d1bc998047a00f9a9bcf7  solve --float --coeffs=0,-1/4 --d 60
1e62d90541d181de79fb447691a0419fec285b9c50cfdf30006cb5b98c51667c  solve --float --coeffs=-1/5 --d 120 --measure edge
# one value past t2, R = c*mu^j with j >= 1, exact and in floats
47817e4f4ba20476f5dd5b88d82a755a71166f12c8f074cfb35f7619f3f10287  solve --coeffs=0,0,1/9 --measure face --d 40
2c83a03a550f20ffa0493d5eca60818707287022355af083a023cbada339de7e  solve --coeffs=0,0,1/9 --measure face --d 40 --float
c711eb255f8ebe7513094168a5130de27ee2aea198e8745cad5b477ea036459a  solve --coeffs=0,1/7 --d 120
# t2 = 0 with two or more values past it: R^F = mu^(jF) * R~^F, exact and in floats
5e8d4ea82f9bf2b2be02fcd5653b3316603556459a9d2d4a7d3917bd098b791a  solve --coeffs=0,1/20,1/30 --d 300
e0260afa4dc783710bd661095fe251d80af07f1c9e18a6436d0317ca63da698e  solve --coeffs=0,1/20,1/30 --d 300 --float
984ad7ec3e8c35ab3165fda73fa626efb38113a3308b3c756aa4c5a05f0c1a05  solve --coeffs=0,0,1/30,1/40 --measure edge --d 200
a1b8a7659ad64eae8e9bfa6fe3c5b44fecb60cfa4ab404a8b0496424ed50508a  solve --coeffs=0,0,1/30,1/40 --measure edge --d 200 --float
1f6a8e07d6ddfc38f91209cc09f27e57d04c3cbb76c6114550224bd35c3943c6  solve --coeffs=0,1/20,1/25 --measure face --d 60
0b4bdd11552c95584c6512039f80bbdd6d3437493516a4e083b0b1dab306e5e4  solve --coeffs=0,1/20,1/25 --measure face --d 60 --float
"""
W80, UNBUFFERED = (("COLUMNS", "80"),), (("PYTHONUNBUFFERED", "1"),)
DIGIT_LIMIT = ("error: result has more than 4300 digits, Python's int-to-str limit "
               "(PYTHONINTMAXSTRDIGITS=0 lifts it)\n")
CYCLIC = "".join(str(2 + i * 7 % 4) + "0" * (i % 4) for i in range(90))
CYCLIC += "0" * (3 + sum(map(int, CYCLIC)) - len(CYCLIC))  # zeros to the length of 3 words
PINNED = [pin(line) for line in PINS.splitlines() if not line.startswith("#")]
ROWS = PINNED + [
    row("verify --measure vertex --d 15", "ZERO\n"),
    row("verify --measure face --d 8 --q 6", "ZERO\n"),
    row("verify --measure vertex --d 20", "ZERO\n"),
    row("verify --measure vertex --d 24", "ZERO\n", timeout=20),
    row("verify --measure vertex --d 3 --bogus", "", code=2, env=W80, err=(
        "usage: hypercatalan [-h] {coeff,table,verify,solve,subdigons,raney,powers} ...\n"
        "hypercatalan: error: unrecognized arguments: --bogus\n")),
    row("raney enumerate --n 1 --m 2", "", code=2, env=W80, err=(
        "usage: hypercatalan raney enumerate [-h] --n N [--m1 M1] [--m2 M2] [--m3 M3]\n"
        "                                    [--m4 M4] [--m5 M5] [--m6 M6] [--m7 M7]\n"
        "                                    [--m8 M8] [--m9 M9]\n"
        "hypercatalan raney enumerate: error: ambiguous option: --m could match --m1, --m2, --m3, "
        "--m4, --m5, --m6, --m7, --m8, --m9\n")),
    row("verify --measure vertex", "", code=2, env=W80, err=(
        "usage: hypercatalan verify [-h] --measure {vertex,edge,face} --d D [--q Q]\n"
        "hypercatalan verify: error: the following arguments are required: --d\n")),
    row(["raney", "check", "1" * 1500 + "0"], "yes\n"),
    row(["raney", "identify", "2" * 1200 + "0" * 1201],
        Sha("d11ed1380b0d19ea6c00d633375a08d7bded79e14f4732d7633331b6b8c3c71a")),
    row("raney identify 0030130010001000420", "INCOMPLETE: unidentified symbols remain\n", code=1),
    row("raney identify 4200030130010001000", "(4(200)0(30(1(300(10)))0)0)\n(10)\n0\n0\n"),
    row("raney identify 0030130010001000420 --cyclic", "(10)\n0\n0\n(4(200)0(30(1(300(10)))0)0)\n"),
    row(["raney", "identify", "0" * 100000, "--cyclic"], "0\n" * 100000, timeout=20),
    row(["raney", "rotations",
         ",".join(map(str, [12, 3, 0, 0, 10] + [0] * 20 + [1, 11, 0, 2] + [0] * 13))],
        Sha("879ed4841dd5d5ce72ea5346b40c3fde6789e9b57895ec9f6bc5511fc3932aae")),
    row(["raney", "identify", "--cyclic", CYCLIC],
        Sha("cdf9804b32d1897eac6c717e9a42a8bce7dbede6d693dce12905793845cc682e")),
    row("raney enumerate --n 1 --m1 1200", "1" * 1200 + "0\ntotal 1 (closed form 1)\n"),
    row("raney enumerate --n 1 --m1 2 --m2 4 --m3 2", "11202020203003000\n", code=1,
        env=UNBUFFERED, head=True),
    row(["raney", "rank", "9" * 4300 + "," + "9" * 4300], "", code=2, err=DIGIT_LIMIT),
    row("subdigons --type 0,0,0,0,0,0,0,0,0,0,1 --format list", "12,0,0,0,0,0,0,0,0,0,0,0,0\n"),
    row("raney check 12,0,0,0,0,0,0,0,0,0,0,0,0 --n 1", "yes\n"),
    row("subdigons --type 9 --format list", "", code=2, err="error: face count 9 exceeds cap 8\n"),
    row("subdigons --type 2,2,1,1",
        "348840 split central-3:73440 central-4:110160 central-5:73440 central-6:91800\n"),
    row("subdigons --type 2,2,1,1 --format list", "20203003004000500000\n", code=1,
        env=UNBUFFERED, head=True),
    row("subdigons --type 8000", "", code=2, err=DIGIT_LIMIT),
    row("coeff --type 8000", "", code=2, err=DIGIT_LIMIT),
    row("coeff --type 1_0", "", code=2, err="error: bad type vector '1_0'\n"),
    row("coeff --type 1 --power 10000000",
        "type [m2=1]\nC = 1\nV = 3, E = 3, F = 1\nC^(10000000) = 10000000\n", timeout=10),
    row("powers --r 99999999999999999999 --m 1", "99999999999999999999\n"),
    row("powers --r 10000000 --m 1", "10000000\n", timeout=10),
    row("powers --r 5 --m 30", "231469715790049632\n"),
    row("powers --identity 200 --order 400", "ZERO\n"),
    row("powers --identity 32000 --order 20", "ZERO\n", timeout=10),
    row("table --measure vertex --d 22", "     [v^0] total  0\n", code=1, head=True),
    # one write of 373 kB that the closed pipe ends short: exit 0 if the short write went unseen
    row("table --measure vertex --d 22", "     [v^0] total  0\n", code=1, env=UNBUFFERED, head=True),
    row("solve --float --coeffs=3 --d 700", "", code=2,
        err="error: out of float range at level bound 700: level 290 sum is inf\n"),
    row("solve --coeffs=-1/2 --d 3",
        "level   0: partial sum = 1\nlevel   1: partial sum = 1/2 ~ 0.5\n"
        "level   2: partial sum = 1 ~ 1\nlevel   3: partial sum = 3/8 ~ 0.375\n"
        "alpha = 3/8 ~ 0.375\nresidual = 71/128 ~ 0.5546875\n"),
    row("solve --coeffs 1_0 --d 2", "", code=2, err="error: bad coefficient '1_0'\n"),
    # --name=-- is the value "--" on every Python, as argparse reads it from 3.13 on
    row("verify --measure vertex --d=--", "", code=2, env=W80, err=(
        "usage: hypercatalan verify [-h] --measure {vertex,edge,face} --d D [--q Q]\n"
        "hypercatalan verify: error: argument --d: invalid int value: '--'\n")),
    row("solve --coeffs=-- --d 3", "", code=2, err="error: bad coefficient '--'\n"),
]


@pytest.mark.parametrize("argv, out, code, err, env, timeout, head", ROWS)
def test_row(argv, out, code, err, env, timeout, head):
    got, text, errors = run(argv, env, timeout, head)
    if "json" in argv:
        json.loads(text)
    if isinstance(out, Sha):
        text = hashlib.sha256(text.encode()).hexdigest()
    assert (got, text, errors) == (code, out, err)


def test_subdigon_listing_is_the_raney_listing():
    # the subdigons of type m are the Raney words over (0, m): the same lines, less the total
    code, listing, _ = run("subdigons --type 2,2,1,1 --format list".split())
    _, words, _ = run("raney enumerate --n 1 --m2 2 --m3 2 --m4 1 --m5 1".split())
    assert code == 0 and listing == words[: words.rindex("\n", 0, -1) + 1]


def test_geode_quotient_of_a_face_level():
    g = geode_quotient(6, 4)[5]
    assert (len(g), sum(g.values())) == (21, 403164)


def test_bumped_slice_has_no_geode_quotient(monkeypatch):
    walk = series._walk

    def bumped(spec):
        buckets = walk(spec)
        buckets[spec.d][next(iter(buckets[spec.d]))] += 1
        return buckets
    monkeypatch.setattr(series, "_walk", bumped)
    with pytest.raises(series.NonzeroRemainder):
        series.geode_quotient(4, 3)


def update(path=HERE / "output_digests.json"):
    """Rewrite the corpus digests at path; print each round whose digest changed, as
    ``workload:seed:round``, and each PINS row whose stdout changed, as its new PINS line."""
    fresh = {f"{w}:{s}": digests(w, s) for w, s in CORPUS}
    old = json.loads(path.read_text())
    for name, shas in fresh.items():
        for r, (sha, was) in enumerate(zip_longest(shas, old.get(name, []))):
            if sha != was:
                print(f"{name}:{r}")
    path.write_text(json.dumps(fresh, indent=2) + "\n")
    for case in PINNED:
        argv, sha, _, _, env, _, _ = case.values
        if (new := hashlib.sha256(run(argv, env)[1].encode()).hexdigest()) != sha:
            print(f"{new}  {case.id}")


def test_update_of_an_unchanged_tree_changes_nothing(tmp_path, capsys):
    path = tmp_path / "output_digests.json"
    path.write_bytes((HERE / "output_digests.json").read_bytes())
    update(path)
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == (HERE / "output_digests.json").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] == ["--update"]:
        update()
        sys.exit()
    for w, s in CORPUS:
        for r, sha in enumerate(digests(w, s)):
            print(f"{sha}  {w}:{s}:{r}")
    for case in ROWS:
        argv, out, _, _, env, timeout, head = case.values
        if isinstance(out, Sha):
            text = run(argv, env, timeout, head)[1]
            print(f"{hashlib.sha256(text.encode()).hexdigest()}  {case.id}")
