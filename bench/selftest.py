"""Self-test of the benchmark's checkers and tracer.

    python3 bench/selftest.py

For one round of every workload (seed 0) it runs each task through the
real CLI, requires the checker to accept the output, then feeds the
checker corrupted copies of it (a NONZERO verdict, an off-by-one total, a
duplicated subdigon, a dropped rotation, ...) and requires every one to
be rejected.  This shows that a fail_frac of 0 is not vacuous.  It then
checks that the tracer refuses to install when a wrapped name is missing
or bound to different objects, and that uninstalling restores every
binding.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter

import run
import tasks
from checks import CheckError, check
from tracer import Tracer, TracerError


def _bump(text: str, pattern: str, by: int = 1) -> str:
    """Add `by` to the integer in group 1 of the first match of pattern."""
    m = re.search(pattern, text, flags=re.M)
    if m is None:
        return text
    return text[:m.start(1)] + str(int(m.group(1)) + by) + text[m.end(1):]


def _drop_line(text: str, pattern: str, last: bool = False) -> str:
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if re.search(pattern, line)]
    if not hits:
        return text
    del lines[hits[-1] if last else hits[0]]
    return "\n".join(lines)


def _dup_line(text: str) -> str:
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 2:
        return text
    lines[1] = lines[0]
    return "\n".join(lines) + "\n"


def _json_edit(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def _table_json_bump(rows):
    row = next(r for r in rows if "b^" in r["row"])
    row["terms"][0]["coeff"] = str(int(row["terms"][0]["coeff"]) + 1)


def corruptions(task: tasks.Task, rc, out: str) -> dict[str, tuple]:
    """name -> (rc, output) of corrupted copies of a correct result."""
    command = task.argv[0] if task.argv[0] != "raney" else f"raney-{task.argv[1]}"
    nonzero = "NONZERO at level 3: t2^3\n"
    if command == "verify":
        return {"NONZERO verdict": (1, nonzero), "NONZERO with exit 0": (0, nonzero),
                "ZERO with exit 1": (1, out), "no newline": (rc, out.rstrip("\n"))}
    if command == "table":
        if task.meta["format"] == "json":
            return {
                "source coefficient +1": (rc, _json_edit(out, _table_json_bump)),
                "source row dropped": (rc, _json_edit(
                    out, lambda rows: rows.remove(next(r for r in rows if "b^" in r["row"])))),
                "last total dropped": (rc, _json_edit(out, lambda rows: rows.pop())),
                "exit 1": (1, out),
            }
        coeff = r"b\^\d+(?:\s+|,\")(\d+)t"
        return {
            "source coefficient +1": (rc, _bump(out, coeff)),
            "source row dropped": (rc, _drop_line(out, r"b\^")),
            "last total dropped": (rc, _drop_line(out, r"total", last=True)),
            "exit 1": (1, out),
        }
    if command == "solve":
        if task.meta["exact"]:
            return {
                "residual numerator +1": (rc, _bump(out, r"^residual = (-?\d+)")),
                "alpha numerator +1": (rc, _bump(out, r"^alpha = (\d+)")),
                "residual dropped": (rc, _drop_line(out, r"^residual")),
            }
        return {
            "residual perturbed": (rc, re.sub(r"(?m)^residual = (.*)$",
                                              lambda m: f"residual = {float(m.group(1)) + 1e-6:.12g}",
                                              out)),
            "alpha perturbed": (rc, _bump(out, r"^alpha = \d+\.\d*?(\d)$")),
        }
    if command == "coeff":
        return {
            "C off by one": (rc, _bump(out, r"^C = (\d+)")),
            "central count off by one": (rc, _bump(out, r"^central \d+-gon: (\d+)")),
            "power coefficient off by one": (rc, _bump(out, r"^C\^\(\d+\) = (\d+)")),
            "E off by one": (rc, _bump(out, r"E = (\d+)")),
        }
    if command == "powers":
        if "r" in task.meta:
            return {"off by one": (rc, _bump(out, r"^(\d+)"))}
        return {"NONZERO verdict": (1, "NONZERO residual: t^3\n"), "exit 1": (1, out)}
    if command == "subdigons":
        if task.meta.get("format") is None:
            return {"total off by one": (rc, _bump(out, r"^(\d+)")),
                    "split entry off by one": (rc, _bump(out, r":(\d+)"))}
        if task.meta["format"] == "json":
            return {"duplicated subdigon": (rc, _json_edit(out, lambda xs: xs.__setitem__(1, xs[0]))),
                    "dropped subdigon": (rc, _json_edit(out, lambda xs: xs.pop())),
                    "wrong type": (rc, _json_edit(out, lambda xs: xs.__setitem__(0, "0")))}
        return {"duplicated subdigon": (rc, _dup_line(out)),
                "dropped subdigon": (rc, _drop_line(out, r".", last=True)),
                "wrong type": (rc, "20" + out[1:])}
    if command == "raney-enumerate":
        return {"total off by one": (rc, _bump(out, r"^total (\d+)")),
                "closed form off by one": (rc, _bump(out, r"closed form (\d+)")),
                "duplicated list": (rc, _dup_line(out)),
                "dropped list": (rc, _drop_line(out, r"^\d+$"))}
    if command == "raney-identify":
        return {"dropped word": (rc, _drop_line(out, r".")),
                "INCOMPLETE": (1, "INCOMPLETE: unidentified symbols remain\n"),
                "extra word": (rc, out + "0\n")}
    if command == "raney-rotations":
        return {"dropped rotation": (rc, _drop_line(out, r".")),
                "offset off by one": (rc, _bump(out, r"^(\d+):")),
                "duplicated rotation": (rc, _dup_line(out) if out.count("\n") > 1 else out + out)}
    if command == "raney-check":
        flipped = "no\n" if out == "yes\n" else "yes\n"
        return {"verdict flipped": (rc, flipped), "exit code flipped": (1 - rc, out),
                "both flipped": (1 - rc, flipped)}
    raise KeyError(command)


def _accepts(task, rc, out) -> bool:
    try:
        check(task, rc, out)
    except (CheckError, ValueError, KeyError, IndexError, json.JSONDecodeError):
        return False
    return True


def checker_selftest(cli) -> int:
    problems = 0
    per_kind: Counter = Counter()
    for workload in tasks.WORKLOADS:
        for task in tasks.round_tasks(workload, 0, 0):
            rc, out, _, error = run.call_cli(cli.main, task.argv)
            if error is not None or not _accepts(task, rc, out):
                print(f"FAIL clean output rejected: {task.line()[:100]}")
                problems += 1
                continue
            for name, (bad_rc, bad_out) in corruptions(task, rc, out).items():
                if (bad_rc, bad_out) == (rc, out):
                    print(f"FAIL corruption '{name}' left the output unchanged: {task.line()[:80]}")
                    problems += 1
                elif _accepts(task, bad_rc, bad_out):
                    print(f"FAIL corruption '{name}' accepted: {task.line()[:80]}")
                    problems += 1
                else:
                    per_kind[task.kind] += 1
    for kind, n in sorted(per_kind.items()):
        print(f"{kind:<20} {n:>3} corrupted outputs rejected")
    return problems


def _bindings() -> list:
    return [(name, dict(vars(mod))) for name, mod in sorted(sys.modules.items())
            if name.startswith("hypercatalan")]


def tracer_selftest(cli) -> int:
    problems = 0
    series = sys.modules["hypercatalan.series"]

    def missing():
        saved = series.mul_truncated
        del series.mul_truncated
        return lambda: setattr(series, "mul_truncated", saved)

    def divergent():
        saved = cli.hyper_catalan
        cli.hyper_catalan = lambda m: saved(m)
        return lambda: setattr(cli, "hyper_catalan", saved)

    for name, breaker in (("series.mul_truncated is missing", missing),
                          ("cli.hyper_catalan is bound to another function", divergent)):
        restore = breaker()
        tracer = Tracer()
        try:
            tracer.install()
        except TracerError as exc:
            print(f"tracer refuses to install when {name}: {exc}")
        else:
            tracer.uninstall()
            print(f"FAIL tracer installed although {name}")
            problems += 1
        finally:
            restore()
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        run.call_cli(cli.main, ["verify", "--measure", "vertex", "--d", "5"])
    finally:
        tracer.uninstall()
    main_stat, mul = tracer.stats["cli.main"], tracer.stats["series.mul_truncated"]
    if not (main_stat.calls == 1 and mul.calls > 0 and 0 < main_stat.self_s < main_stat.s):
        print("FAIL traced verify did not record cli.main around series.mul_truncated")
        problems += 1
    if _bindings() != before:
        print("FAIL uninstall did not restore every binding")
        problems += 1
    else:
        print("tracer records nested spans and uninstall restores every binding")
    return problems


def main() -> int:
    cli = run._import_cli()
    problems = checker_selftest(cli) + tracer_selftest(cli)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
