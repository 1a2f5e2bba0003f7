"""The three workloads: seeded fixtures, one cycle of operations, and checks.

A workload is built from a seed into a fixed *cycle* of operations.  The
cycle's shape (which operation, on which size) is the same for every seed,
so run-to-run figures compare like with like; the seed decides the
contents.  Each operation carries its own check against :mod:`oracle`;
expected values are computed once per fixture by ``prepare`` before
timing starts, so a check in the timed loop is a comparison.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import semimeasures as sm
from semimeasures import cli

import gen
import oracle
from gen import F0, F1, HALF, all_strings, literal, strings_up_to


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    prepare: Callable[[], Any] = lambda: None
    known_defect: str | None = None
    plant: Callable[[Any], Any] | None = None  # a wrong answer the check must reject
    after: Callable[[Any], None] | None = None  # bookkeeping outside the timed call
    info: dict = field(default_factory=dict)


def once(fn: Callable[[], Any]) -> Callable[[], Any]:
    """Memoise a no-argument function (the expected value of one fixture)."""
    box: list = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


SIZES = {
    # sizes per workload; "copies" independent fixture sets make up one
    # cycle, and sizes form a continuum, which keeps the percentiles from
    # jumping between seeds; "smoke" shrinks everything
    "full": dict(copies={"presentation": 2, "roundtrip-cli": 6, "antichain": 1}, pres_depths=(8, 9, 10, 8, 9, 10, 11, 12), atom_bits=(10, 12), sample=12,
                 cli_depths=(5, 6, 7), level_sizes=dict(
                     ml=(200, 300, 450, 600, 800, 1000, 1200, 1400, 2000),
                     passes=(250, 350, 500, 700, 900, 1100, 1300),
                     generalized=(200, 300, 400, 600, 800), intersect=(200, 250, 300, 350, 400, 500),
                     shift=(200, 300, 400, 600, 800), filter=(200, 400, 600, 800), pullback=(200, 250, 300)),
                 cli_pres_depth=10, induce_extra=(0, 3, 6), mirror_stages=7),
    "smoke": dict(copies={"presentation": 1, "roundtrip-cli": 1, "antichain": 1}, pres_depths=(3, 4), atom_bits=(4,), sample=3,
                  cli_depths=(2, 3), level_sizes=dict(
                      ml=(8, 16), passes=(8,), generalized=(8, 16, 16), intersect=(8,), shift=(8,),
                      filter=(8, 8), pullback=(8,)),
                  cli_pres_depth=3, induce_extra=(0, 2), mirror_stages=4),
}


# -- presentation -------------------------------------------------------------


def presentation(rng: random.Random, cfg: dict, part: int, workdir: str) -> list[Op]:
    depths = cfg["pres_depths"]
    cycle: list[Op] = []

    for k, d in enumerate(depths):
        ncomp = 2 + k % 3
        mix = gen.random_mixture(rng, d, ncomp)
        tilted = gen.random_mixture(rng, d, ncomp, tilted=True)
        cycle.append(validate_op(mix if k % 2 else tilted))
        if d <= depths[0] + 1:
            measure = gen.random_measure(rng, d, ncomp)
            cycle.append(validate_measure_op(measure if k % 2 == 0 else mix))
            cycle.append(complete_op(rng, mix))
        cycle.append(partial_trim_op(rng, tilted if k % 2 else mix))
        cycle.append(derived_op(rng, mix, cfg["sample"]))
        leb = gen.lebesgue_like(rng, min(d, depths[0] + 1), ncomp)
        cycle.append(lebesgue_op(leb if k % 2 == 0 else mix, min(d, depths[0] + 1)))
        cycle.append(open_set_op(rng, mix))
    # ROADMAP defect 1: validate passes, completion goes negative
    for d in depths[:2]:
        joint = gen.jointly_valid_mixture(rng, d, 3)
        cycle.append(validate_op(joint))
        cycle.append(complete_op(rng, joint))
    for k, bits in enumerate(cfg["atom_bits"]):
        cycle.append(decode_op(gen.random_atom(rng, bits, 7 + k % 2)))
    return cycle


def validate_op(spec: gen.StageSpec) -> Op:
    stage = gen.build_stage(spec)
    expect = once(lambda: oracle.validate_expected(spec))

    def check(rep) -> bool:
        return (rep.ok, rep.node) == expect()

    def plant(rep):
        return sm.ValidationReport(not rep.ok, node=rep.node)

    return Op("validate", lambda: sm.validate(stage), check, expect, plant=plant)


def validate_measure_op(spec: gen.StageSpec) -> Op:
    stage = gen.build_stage(spec)
    expect = once(lambda: oracle.measure_violations(spec))

    def check(rep) -> bool:
        ok, bad = expect()
        return rep.ok == ok and (ok or rep.node in bad)

    return Op("validate_measure", lambda: sm.validate_measure(stage), check, expect)


def complete_op(rng: random.Random, spec: gen.StageSpec) -> Op:
    """Checked on every node down to depth 5 and on 24 seeded paths below."""
    stage = gen.build_stage(spec)
    depth = spec.max_depth
    deep = [format(rng.getrandbits(depth + 2), f"0{depth + 2}b") for _ in range(24)]
    probe = strings_up_to(min(depth, 5)) + [s[:n] for s in deep for n in (depth - 1, depth, depth + 2)]
    expect = once(lambda: oracle.pushdown(spec, depth))

    def check(out) -> bool:
        return oracle.completion_ok(spec, expect(), depth, out, probe)

    return Op("complete_to_measure", lambda: sm.complete_to_measure(stage), check, expect,
              known_defect=spec.known_defect)


def partial_trim_op(rng: random.Random, spec: gen.StageSpec) -> Op:
    """A level table: the level masses above sigma from |sigma| to depth + 3."""
    stage = gen.build_stage(spec)
    depth = spec.max_depth
    sigma = "".join(rng.choice("01") for _ in range(max(1, depth - 9)))
    levels = list(range(len(sigma), depth + 4))
    checked = sorted({levels[0], depth, depth + 3, rng.choice(levels)})
    expect = once(lambda: {n: oracle.level_sum(spec, sigma, n) for n in checked})

    def run():
        return [sm.partial_trim(stage, sigma, n) for n in levels]

    def check(row) -> bool:
        exp = expect()
        return len(row) == len(levels) and all(oracle.frac(row[n - len(sigma)]) == exp[n] for n in checked)

    def plant(row):
        return [sm.Dyadic(row[0].numerator + 1, row[0].exponent)] + row[1:]

    return Op("partial_trim", run, check, expect, plant=plant)


def derived_op(rng: random.Random, spec: gen.StageSpec, count: int) -> Op:
    stage = gen.build_stage(spec)
    depth = spec.max_depth
    lengths = [round(i * (depth + 2) / (count - 1)) for i in range(count)]  # fixed, so the cost is too
    nodes = sorted({"".join(rng.choice("01") for _ in range(n)) for n in lengths})
    expect = once(lambda: [(oracle.trim(spec, s), max(len(s), depth)) for s in nodes])

    def run():
        return [sm.derived_measure(stage, s) for s in nodes]

    def check(results) -> bool:
        return [(oracle.frac(r.value), r.depth) for r in results] == expect() and all(r.stabilized for r in results)

    return Op("derived_measure", run, check, expect)


def lebesgue_op(spec: gen.StageSpec, depth: int) -> Op:
    stage = gen.build_stage(spec)
    expect = once(lambda: oracle.lebesgue_expected(spec, depth))

    def check(rep) -> bool:
        alpha = None if rep.alpha is None else oracle.frac(rep.alpha)
        return (alpha, rep.witness) == expect()

    return Op("lebesgue_like_check", lambda: sm.lebesgue_like_check(stage, depth), check, expect)


def open_set_op(rng: random.Random, spec: gen.StageSpec) -> Op:
    stage = gen.build_stage(spec)
    members = oracle.normalize("".join(rng.choice("01") for _ in range(n)) for n in (2, 3, 4, 5, 6, 6))
    m_max = 4
    expect = once(lambda: (
        [sum((oracle.level_sum(spec, s, len(s) + m) for s in members), F0) for m in range(m_max + 1)],
        sum((oracle.trim(spec, s) for s in members), F0),
    ))

    def check(res) -> bool:
        masses, limit = expect()
        return [oracle.frac(v) for v in res.masses] == masses and oracle.frac(res.limit.value) == limit

    return Op("open_set_derived", lambda: sm.open_set_derived(stage, members, m_max), check, expect)


def decode_op(atom: gen.AtomSpec) -> Op:
    bits, budget = len(atom.path), 512
    stage_fn = gen.ramp_stage_fn(atom, budget)
    q = gen.dyadic(atom.q)

    def run():
        return sm.decode_atom(sm.LeftCeSemiMeasure(stage_fn), q, "", bits, max_stage=budget)

    def plant(out):
        return out[:-1] + ("1" if out[-1] == "0" else "0")

    return Op("decode_atom", run, lambda out: out == atom.path, plant=plant, info={"bits": bits})


# -- roundtrip-cli ------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``semimeasures ARGV`` in process, stdout captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def leaves(obj: Any) -> Any:
    """JSON value with every leaf as the text the CSV form would show."""
    if isinstance(obj, dict):
        return {k: leaves(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [leaves(v) for v in obj]
    return "" if obj is None else str(obj)


def flatten(prefix: str, obj: Any, rows: list[list[str]]) -> list[list[str]]:
    """The documented key,value CSV form: dotted keys, [i] list indices."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            flatten(f"{prefix}.{key}" if prefix else key, obj[key], rows)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            flatten(f"{prefix}[{i}]", item, rows)
    else:
        rows.append([prefix, "" if obj is None else str(obj)])
    return rows


def output_matches(text: str, fmt: str, payload: Any, skip: tuple[str, ...] = ()) -> bool:
    """Compare CLI output with the expected payload in either format;
    top-level keys in ``skip`` (free-text messages) are not compared."""
    if fmt == "json":
        try:
            got = json.loads(text)
        except ValueError:
            return False
        if not isinstance(got, dict) or set(got) != set(payload):
            return False
        return all(leaves(got[k]) == leaves(payload[k]) for k in payload if k not in skip)
    rows = list(csv.reader(io.StringIO(text)))
    if isinstance(payload, dict) and "header" in payload and "rows" in payload:
        return rows == [leaves(payload["header"])] + leaves(payload["rows"])
    want = flatten("", {k: v for k, v in payload.items() if k not in skip}, [])
    got = [r for r in rows[1:] if r[0].split(".")[0].split("[")[0] not in skip]
    return rows[:1] == [["key", "value"]] and got == want


def read_stages(text: str, fmt: str) -> list[list[tuple[str, str]]] | None:
    """The pair lists of a functional document, from either output format."""
    if fmt == "json":
        try:
            return [[(i, o) for i, o in stage] for stage in json.loads(text)["stages"]]
        except (ValueError, KeyError, TypeError):
            return None
    stages: dict[int, dict[int, list[str]]] = {}
    for key, val in list(csv.reader(io.StringIO(text)))[1:]:
        if not key.startswith("stages["):
            return None
        t, k, side = (int(x) for x in key[len("stages["):-1].split("]["))
        stages.setdefault(t, {}).setdefault(k, ["", ""])[side] = val
    top = max(stages, default=-1)
    return [[tuple(stages.get(t, {})[k]) for k in sorted(stages.get(t, {}))] for t in range(top + 1)]


def induced_table(stages: list[list[tuple[str, str]]], t: int, depth: int) -> dict[str, Fraction]:
    """Uniform measure of the inputs whose output extends each node, at stage t."""
    buckets: dict[str, list[str]] = {s: [] for s in strings_up_to(depth)}
    for stage in stages[: t + 1]:
        for i, o in stage:
            for k in range(min(len(o), depth) + 1):
                buckets[o[:k]].append(i)
    return {s: oracle.lebesgue(b) for s, b in buckets.items()}


@dataclass
class Infimum:
    """An ``infimum`` descriptor whose row i is zero before stage i: stage s
    reveals levels 0..s of sigma -> 2^-|sigma| * min_{i <= |sigma|} r_i(s)."""

    rows: list[list[Fraction]]
    depth: int

    @property
    def last_stage(self) -> int:
        return max(len(r) for r in self.rows) - 1

    def table(self, t: int, depth: int) -> dict[str, Fraction]:
        out = {}
        for n in range(depth + 1):
            if n > self.depth:
                level = F0
            else:
                level = min(r[min(t, len(r) - 1)] for r in self.rows[: n + 1]) / (1 << n)
            out.update((s, level) for s in all_strings(n))
        return out

    def doc(self) -> dict:
        return {"kind": "infimum", "rows": [[literal(v) for v in r] for r in self.rows], "depth": self.depth}


def random_infimum(rng: random.Random, depth: int) -> Infimum:
    bits = 16 - depth  # keeps every value within the default granularity cap
    rows = [[F1]]
    for i in range(1, depth + 1):
        ramp = sorted(gen.rand_frac(rng, bits, lo=1 << (bits - 2)) for _ in range(2))
        rows.append([F0] * i + ramp)
    return Infimum(rows, depth)


class Files:
    """Fixture files in the work directory; remembers their sizes."""

    def __init__(self, workdir: str, prefix: str):
        self.dir = workdir
        self.prefix = prefix
        self.sizes: dict[str, int] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, self.prefix + name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.sizes[path] = len(text.encode())
        return path

    def json(self, name: str, obj: Any) -> str:
        return self.write(name, json.dumps(obj))


def cli_op(kind: str, argv: list[str], check: Callable[[int, str], bool], files: Files,
           prepare: Callable[[], Any] = lambda: None, after=None, plant=None) -> Op:
    inputs = [a for a in argv if a.startswith(files.dir)]
    return Op(kind, lambda: run_cli(argv), lambda res: check(*res), prepare, after=after, plant=plant,
              info={"argv": argv, "inputs": inputs, "files": files})


def roundtrip_cli(rng: random.Random, cfg: dict, part: int, workdir: str) -> list[Op]:
    files = Files(workdir, f"p{part}-")
    cycle: list[Op] = []
    fmts = ("json", "csv")

    for k, d in enumerate(cfg["cli_depths"]):
        inf = random_infimum(rng, d)
        src = files.json(f"inf{k}.json", inf.doc())
        fn_name = f"fn{k}.json"
        fn_path = files.path(fn_name)
        last = inf.last_stage
        cycle.append(invert_op(inf, src, fn_name, last, "json", files))
        cycle.append(invert_op(inf, src, None, last, "csv", files))
        for j, extra in enumerate(cfg["induce_extra"]):
            cycle.append(induce_op(inf, fn_path, last - j, d + extra, fmts[j % 2], files))
        cycle.append(validate_functional_op(fn_path, fmts[k % 2], files))
        sigma = "".join(rng.choice("01") for _ in range(d + 2))
        cycle.append(eval_op(fn_path, sigma, last - 1, fmts[(k + 1) % 2], files))

    pres_depth = cfg["cli_pres_depth"]
    for k in range(2):
        mix = gen.random_mixture(rng, pres_depth - k, 2 + k)
        bad = gen.random_mixture(rng, pres_depth - 2, 2)
        plant_violation(rng, bad)
        for j, spec in enumerate((mix, bad)):
            path = files.json(f"pres{k}{j}.json", gen.stage_json(spec))
            cycle.append(validate_presentation_op(spec, path, fmts[(k + j) % 2], files))
        trim_spec = gen.random_mixture(rng, pres_depth - 3, 2 + k, tilted=bool(k))
        path = files.json(f"trim{k}.json", gen.stage_json(trim_spec))
        cycle.append(trim_op(rng, trim_spec, path, fmts[k], files))

    for k, n in enumerate(cfg["level_sizes"]["ml"][:2]):
        base = gen.antichain_base(rng, 4, 2)
        test = random_ml_test(rng, base, n, levels=3, planted=bool(k))
        path = files.json(f"test{k}.json", test.doc())
        cycle.append(validate_test_op(test, path, fmts[k], files))

    for k, bits in enumerate(cfg["atom_bits"]):
        atom = gen.random_atom(rng, bits, 8)
        path = files.json(f"atom{k}.json", gen.stage_json(gen.atom_constant_spec(atom)))
        cycle.append(atom_decode_op(atom, path, fmts[k % 2], files))

    approx = sorted(gen.rand_frac(rng, 10, hi=(1 << 10) - 1) for _ in range(cfg["mirror_stages"]))
    cycle.append(mirror_pair_op(approx, "json", files))
    cycle.append(mirror_pair_op(approx[:-1], "csv", files))
    cycle.append(worked_examples_op("json", files))
    cycle.append(worked_examples_op("csv", files))
    cycle += malformed_ops(rng, files)
    return cycle


def invert_op(inf: Infimum, src: str, fn_name: str | None, last: int, fmt: str, files: Files) -> Op:
    argv = ["invert", src, "--stage", str(last), "--depth", str(inf.depth), "--format", fmt]
    checked = sorted({last, max(0, last // 2)})
    expect = once(lambda: {t: inf.table(t, inf.depth) for t in checked})

    def check(code: int, text: str) -> bool:
        stages = read_stages(text, fmt) if code == 0 else None
        return stages is not None and all(induced_table(stages, t, inf.depth) == expect()[t] for t in checked)

    def after(res) -> None:
        """Keep the first functional document as the input of induce and eval."""
        if fn_name is not None and not os.path.exists(files.path(fn_name)):
            files.write(fn_name, res[1])

    def plant(res):
        """Drop the last pair: its output node loses mass."""
        code, text = res
        if fmt == "csv":
            return code, "".join(text.splitlines(keepends=True)[:-2])
        doc = json.loads(text)
        next(s for s in reversed(doc["stages"]) if s).pop()
        return code, json.dumps(doc)

    return cli_op("invert", argv, check, files, expect, after=after, plant=plant)


def induce_op(inf: Infimum, fn_path: str, t: int, depth: int, fmt: str, files: Files) -> Op:
    argv = ["induce", fn_path, "--stage", str(t), "--depth", str(depth), "--format", fmt]

    def payload():
        table = inf.table(t, depth)
        return {"strict": table[""] == 1, "components": [{
            "weight": literal(F1), "depth": depth, "tail": {"kind": "vanish"},
            "table": [[literal(table[s]) for s in all_strings(n)] for n in range(depth + 1)],
        }]}

    expect = once(payload)
    return cli_op("induce", argv, lambda code, text: code == 0 and output_matches(text, fmt, expect()),
                  files, expect)


def validate_functional_op(fn_path: str, fmt: str, files: Files) -> Op:
    argv = ["validate", fn_path, "--format", fmt]

    def payload():
        with open(fn_path, encoding="utf-8") as fh:
            last = max(len(json.load(fh)["stages"]) - 1, 0)
        return {"kind": "functional", "ok": True, "stage": last, "conflict": None}

    expect = once(payload)
    return cli_op("validate", argv, lambda code, text: code == 0 and output_matches(text, fmt, expect()),
                  files, expect)


def eval_op(fn_path: str, sigma: str, t: int, fmt: str, files: Files) -> Op:
    argv = ["eval", fn_path, "--sigma", sigma, "--stage", str(t), "--format", fmt]

    def payload():
        with open(fn_path, encoding="utf-8") as fh:
            stages = json.load(fh)["stages"]
        best = ""
        for stage in stages[: t + 1]:
            for i, o in stage:
                if sigma.startswith(i) and len(o) > len(best):
                    best = o
        return {"input": sigma, "stage": t, "output": best}

    expect = once(payload)

    def plant(res):
        return res[0], res[1].replace(sigma, sigma[::-1] + "0", 1)

    return cli_op("eval", argv, lambda code, text: code == 0 and output_matches(text, fmt, expect()),
                  files, expect, plant=plant)


def plant_violation(rng: random.Random, spec: gen.StageSpec) -> None:
    """Make one deep node's children outweigh it in the first component."""
    c = spec.comps[0]
    node = "".join(rng.choice("01") for _ in range(max(0, c.depth - 2)))  # fixed level: fixed cost
    c.table[node + "0"] = c.table[node] + Fraction(1, 1 << 20)


def validate_presentation_op(spec: gen.StageSpec, path: str, fmt: str, files: Files) -> Op:
    argv = ["validate", path, "--format", fmt]

    def payload():
        ok, node = oracle.validate_expected(spec)
        root = oracle.value(spec, "")
        children = None  # reported for super-additivity failures, not for a bad root mass
        if not ok and not ((spec.strict and root != 1) or root > 1):
            children = {b: literal(oracle.value(spec, node + b)) for b in "01"}
        return {"kind": "semimeasure", "ok": ok, "node": node, "message": None, "children": children}

    expect = once(payload)

    def check(code: int, text: str) -> bool:
        exp = expect()
        return code == (0 if exp["ok"] else 1) and output_matches(text, fmt, exp, skip=("message",))

    return cli_op("validate", argv, check, files, expect)


def trim_op(rng: random.Random, spec: gen.StageSpec, path: str, fmt: str, files: Files) -> Op:
    depth = spec.max_depth + 3
    sigma = "".join(rng.choice("01") for _ in range(max(0, depth - 10)))
    argv = ["trim", path, "--sigma", sigma, "--depth", str(depth), "--format", fmt]
    tilted = any(c.tilt for c in spec.comps)

    def payload():
        rows = [[n, literal(oracle.level_sum(spec, sigma, n))] for n in range(len(sigma), depth + 1)]
        if tilted:
            derived = {"value": rows[-1][1], "depth": depth, "stabilized": False}
        else:
            derived = {"value": literal(oracle.trim(spec, sigma)),
                       "depth": max(len(sigma), spec.max_depth), "stabilized": True}
        return {"sigma": sigma, "header": ["depth", "value"], "rows": rows, "derived": derived}

    expect = once(payload)
    return cli_op("trim", argv, lambda code, text: code == 0 and output_matches(text, fmt, expect()),
                  files, expect)


@dataclass
class TestSpec:
    base: gen.StageSpec
    levels: list[list[str]]
    decay: dict[int, int] | None = None

    def doc(self) -> dict:
        out = {"kind": "ml" if self.decay is None else "generalized",
               "base": gen.stage_json(self.base), "levels": self.levels}
        if self.decay is not None:
            out["decay"] = {str(k): v for k, v in self.decay.items()}
        return out

    def first_violation(self) -> tuple[int, Fraction, Fraction] | None:
        checks = sorted(self.decay.items()) if self.decay is not None else [(i, i) for i in range(len(self.levels))]
        for k, i in checks:
            mass = oracle.set_mass(self.base, self.levels[i])
            if mass > Fraction(1, 1 << k):
                return i, mass, Fraction(1, 1 << k)
        return None


def random_ml_test(rng: random.Random, base: gen.StageSpec, n: int, levels: int, planted: bool = False,
                   gate: str = "", gate_share: float = 0.0) -> TestSpec:
    """Levels of shrinking size whose base mass is within 2^-i by construction;
    ``planted`` appends a level holding every string of one length (the
    whole root mass), which exceeds its bound."""
    density = gen.density_cap(base)
    out = []
    for i in range(levels):
        size = max(2, n >> i)
        out.append(gen.random_level(rng, size, gen.length_for(size, density, i), gate, gate_share))
    if planted:
        out.append(all_strings(4 + levels))
    return TestSpec(base, out)


def validate_test_op(test: TestSpec, path: str, fmt: str, files: Files) -> Op:
    argv = ["validate", path, "--format", fmt]

    def payload():
        v = test.first_violation()
        violation = None if v is None else {"level": v[0], "mass": literal(v[1]), "bound": literal(v[2])}
        return {"kind": "test", "ok": v is None, "violation": violation}

    expect = once(payload)

    def check(code: int, text: str) -> bool:
        exp = expect()
        return code == (0 if exp["ok"] else 1) and output_matches(text, fmt, exp)

    return cli_op("validate", argv, check, files, expect)


def atom_decode_op(atom: gen.AtomSpec, path: str, fmt: str, files: Files) -> Op:
    bits = len(atom.path)
    argv = ["atom-decode", path, "--q", literal(atom.q), "--bits", str(bits), "--budget", "512", "--format", fmt]
    payload = {"seed": "", "q": literal(atom.q), "bits": atom.path}
    op = cli_op("atom-decode", argv, lambda code, text: code == 0 and output_matches(text, fmt, payload), files)
    op.info["bits"] = bits
    return op


def expansion(v: Fraction, n: int) -> str:
    """First n binary digits of v in [0, 1)."""
    return format(int(v * (1 << n)), f"0{n}b") if n else ""


def mirror_pair_op(approx: list[Fraction], fmt: str, files: Files) -> Op:
    argv = ["mirror-pair", "--stages", ",".join(literal(v) for v in approx), "--format", fmt]

    def payload():
        # stage s maps every expansion prefix seen so far onto 0^n; the twin
        # maps each new pair's length-n slot to the leftmost unused input
        first: list[tuple[int, str, str]] = []
        second: list[tuple[int, str, str]] = []
        seen: set = set()
        used: dict[int, int] = {}
        for s, v in enumerate(approx):
            for n in range(s + 1):
                pair = (expansion(v, n), "0" * n)
                if pair in seen:
                    continue
                seen.add(pair)
                first.append((s, *pair))
                second.append((s, format(used.get(n, 0), f"0{n}b") if n else "", "0" * n))
                used[n] = used.get(n, 0) + 1
        last = len(approx) - 1
        depth = min(last, 8)

        def doc(events):
            stages = [[] for _ in range(max(t for t, _, _ in events) + 1)]
            for t, i, o in sorted(events):
                stages[t].append([i, o])
            return {"stages": stages}

        spine = [literal(oracle.lebesgue([i for _, i, o in first if len(o) >= k])) for k in range(depth + 1)]
        return {"first": doc(first), "second": doc(second), "depth": depth, "stages": len(approx),
                "induced_agree": True, "spine_values": spine}

    expect = once(payload)
    return cli_op("mirror-pair", argv, lambda code, text: code == 0 and output_matches(text, fmt, expect()),
                  files, expect)


# The frozen worked-example table, derived by hand from the definitions:
# geometric(1/4) loses half its mass per level, so its trim vanishes; half
# fair coin plus half geometric(1/4) trims to half the fair coin; pushing
# the 4^-n table's surplus down in halves gives 2^-n, so 1/16 at 1111;
# padding (0 -> 0) with an identity branch puts 1/4 + 1/4 on "0"; the
# mirror pair's induced measures agree, so their largest gap is 0.
WORKED = [
    ["vanishing-trim", "0/2^0"],
    ["half-uniform-trim", "1/2^1"],
    ["geometric-quarter-completion", "1/2^4"],
    ["identity-pad", "1/2^1"],
    ["mirror-pair-depth-6", "0/2^0"],
]


def worked_examples_op(fmt: str, files: Files) -> Op:
    payload = {"header": ["construction", "expected", "computed", "match"],
               "rows": [[name, v, v, "true"] for name, v in WORKED]}
    return cli_op("worked-examples", ["worked-examples", "--format", fmt],
                  lambda code, text: code == 0 and output_matches(text, fmt, payload), files)


def malformed_ops(rng: random.Random, files: Files) -> list[Op]:
    """Bad input must fail with its documented exit code and no traceback."""
    good = gen.stage_json(gen.random_mixture(rng, 3, 2))
    text = json.dumps(good)
    cases = [
        ("truncated.json", text[: len(text) // 2], ["validate"], 2),
        ("badliteral.json", text.replace('"1/2^0"', '"1/3"', 1), ["validate"], 2),
        ("badbits.json", json.dumps({"stages": [[["01", "2"]]]}), ["eval", "--sigma", "0"], 2),
        ("nonstrict.json", json.dumps(dict(good, strict=False, components=[
            dict(good["components"][0], weight="1/2^1")])), ["invert", "--depth", "2"], 4),
    ]
    ops = []
    for name, body, cmd, code in cases:
        path = files.write(name, body)
        argv = [cmd[0], path] + cmd[1:]
        ops.append(cli_op("malformed", argv, lambda c, _t, want=code: c == want, files))
    inf = random_infimum(rng, 3)
    path = files.json("noatom.json", inf.doc())
    argv = ["atom-decode", path, "--q", "3/2^2", "--bits", "2", "--budget", "8"]
    ops.append(cli_op("malformed", argv, lambda c, _t: c == 3, files))
    return ops


# -- antichain ----------------------------------------------------------------


def antichain(rng: random.Random, cfg: dict, part: int, workdir: str) -> list[Op]:
    sizes = cfg["level_sizes"]
    cycle: list[Op] = []

    def base_for(k: int) -> gen.StageSpec:
        return gen.antichain_base(rng, 4 + k % 3, 2 + k % 3, tilted=bool(k % 2))

    for k, n in enumerate(sizes["ml"]):
        base = base_for(k)
        cycle.append(validate_ml_op(random_ml_test(rng, base, n, levels=3, planted=(k % 2 == 1))))
    for k, n in enumerate(sizes["passes"]):
        base = base_for(k)
        cycle.append(passes_op(rng, random_ml_test(rng, base, n, levels=3)))
    for k, n in enumerate(sizes["generalized"]):
        base = base_for(k)
        decay = {0: 1, 1: 2} if k % 2 else {0: 0, 1: 1, 2: 2}
        if k % 3 == 2:
            decay[3] = 1  # level 1 holds more than 2^-3
        test = random_ml_test(rng, base, n, levels=3)
        cycle.append(validate_generalized_op(TestSpec(base, test.levels, decay)))
    for n in sizes["intersect"]:
        cycle.append(intersect_op(rng, n))
    for k, n in enumerate(sizes["shift"]):
        base = base_for(k)
        cycle.append(shift_op(base, random_ml_test(rng, base, n, levels=4)))
    for k, n in enumerate(sizes["filter"]):
        base = base_for(k)
        cycle.append(ones_filter_op(rng, base, n, 1 + k % 2))
    for n in sizes["pullback"]:
        cycle.append(pullback_op(rng, n))
    return cycle


def ml_test_object(test: TestSpec):
    base_stage = gen.build_stage(test.base)
    levels = dict(enumerate(test.levels))
    if test.decay is None:
        return sm.MLTest.build(levels, base_stage)
    return sm.GeneralizedTest.build(levels, base_stage, test.decay)


def violation_matches(v, exp) -> bool:
    if v is None or exp is None:
        return v is None and exp is None
    return (v.level, oracle.frac(v.mass), oracle.frac(v.bound)) == exp


def validate_ml_op(test: TestSpec) -> Op:
    obj = ml_test_object(test)
    expect = once(test.first_violation)

    def plant(v):
        return None if v is not None else sm.LevelViolation(0, sm.ONE, sm.ONE)

    return Op("validate_ml_test", lambda: sm.validate_ml_test(obj), lambda v: violation_matches(v, expect()),
              expect, plant=plant)


def validate_generalized_op(test: TestSpec) -> Op:
    obj = ml_test_object(test)
    expect = once(test.first_violation)
    return Op("validate_generalized_test", lambda: sm.validate_generalized_test(obj),
              lambda v: violation_matches(v, expect()), expect)


def passes_op(rng: random.Random, test: TestSpec) -> Op:
    obj = ml_test_object(test)
    member = rng.choice(test.levels[0])
    prefix = member[: rng.randint(len(member) // 2, len(member))]

    def statuses():
        out = []
        for i, level in enumerate(test.levels):
            if any(prefix.startswith(m) for m in level):
                status = "captured"
            elif any(m.startswith(prefix) for m in level):
                status = "undetermined"
            else:
                status = "escaped"
            out.append((i, status, oracle.set_mass(test.base, level)))
        return out

    expect = once(statuses)

    def check(res) -> bool:
        return [(r.level, r.status, oracle.frac(r.mass)) for r in res] == expect()

    return Op("passes_at_depth", lambda: sm.passes_at_depth(obj, prefix), check, expect)


def intersect_op(rng: random.Random, n: int) -> Op:
    """Three prefix-free families, the longer ones partly extending the shorter."""
    length = (n - 1).bit_length() + 2
    first = gen.random_level(rng, n, length)
    families = [first]
    for extra in (2, 3):
        below = {s + format(rng.getrandbits(extra), f"0{extra}b") for s in rng.sample(first, n // 2)}
        fresh = gen.random_level(rng, n - len(below), length + extra)
        families.append(sorted(below | set(fresh)))  # one length each, so prefix-free
    expect = once(lambda: oracle.intersect_families(families, 2))

    def plant(out):
        return out[1:]

    return Op("intersect_tests", lambda: sm.intersect_tests(families), lambda out: list(out) == expect(),
              expect, plant=plant)


def shift_op(base: gen.StageSpec, test: TestSpec) -> Op:
    """Reweighting the base (its lightest component by 3/2, the others by 1/2)
    gives a semi-measure of root mass 1/2 + w <= 1 dominated by c * base with
    c = 3/2, so levels move down by one."""
    heavy = min(range(len(base.comps)), key=lambda j: base.comps[j].weight)
    weights = [comp.weight * (Fraction(3, 2) if j == heavy else HALF) for j, comp in enumerate(base.comps)]
    c = Fraction(3, 2)
    dominated = gen.StageSpec([gen.CompSpec(w2, comp.depth, comp.table, comp.tails, comp.tilt)
                               for w2, comp in zip(weights, base.comps)], strict=False)
    obj = ml_test_object(test)
    dom_stage = gen.build_stage(dominated)
    k = 0
    while (1 << k) < c:
        k += 1
    expect_levels = {i - k: tuple(level) for i, level in enumerate(test.levels) if i >= k}

    def check(out) -> bool:
        return out.base is dom_stage and {i: tuple(v) for i, v in out.levels.items()} == expect_levels

    return Op("shift_for_domination", lambda: sm.shift_for_domination(obj, gen.dyadic(c), dom_stage), check)


def ones_filter_op(rng: random.Random, base: gen.StageSpec, n: int, j: int) -> Op:
    """A test over the ones-tilted base, filtered behind 1^j 0 back onto the base."""
    tilted = gen.StageSpec([gen.CompSpec(c.weight, c.depth, c.table, c.tails, c.tilt + 1) for c in base.comps])
    gate = "1" * j + "0"
    test = random_ml_test(rng, tilted, n, levels=3 + j, gate=gate, gate_share=0.5)
    obj = ml_test_object(test)
    base_stage = gen.build_stage(base)
    expect_levels = {i - j: tuple(oracle.normalize(s for s in level if s.startswith(gate)))
                     for i, level in enumerate(test.levels) if i >= j}

    def check(out) -> bool:
        return {i: tuple(v) for i, v in out.levels.items()} == expect_levels

    return Op("ones_prefix_filter", lambda: sm.ones_prefix_filter(obj, j, base_stage), check)


def pullback_op(rng: random.Random, n: int) -> Op:
    """phi sends a distinct length-12 input to each of n length-10 outputs;
    the test lives on phi's induced table, which the oracle builds itself."""
    out_len, in_len = 10, 12
    outputs = gen.random_level(rng, n, out_len)
    inputs = gen.random_level(rng, n, in_len)
    rng.shuffle(inputs)
    pre = dict(zip(outputs, inputs))
    events = [(rng.randint(0, 2), pre[y], y) for y in outputs]
    table = {s: F0 for s in strings_up_to(out_len)}
    for y in outputs:
        for k in range(out_len + 1):
            table[y[:k]] += Fraction(1, 1 << in_len)
    base = gen.StageSpec([gen.CompSpec(F1, out_len, table, {f: (F0, F0) for f in all_strings(out_len)})],
                         strict=False)
    levels, pool = [], list(outputs)
    for i in range(3):
        room = (1 << in_len) >> i  # members of mass 2^-12 fitting under 2^-i
        rng.shuffle(pool)
        levels.append(sorted(pool[: min(len(pool), room, n >> i)]))
    obj = ml_test_object(TestSpec(base, levels))
    phi = sm.MonotoneFunctional.from_events(events)
    expect_levels = {i: tuple(oracle.normalize(pre[y] for y in level)) for i, level in enumerate(levels)}

    def check(out) -> bool:
        base_ok = [c.table[""] for c in out.base.components] == [sm.ONE]
        return base_ok and {i: tuple(v) for i, v in out.levels.items()} == expect_levels

    return Op("pullback_test", lambda: sm.pullback_test(obj, phi, 2), check)


WORKLOADS = {"presentation": presentation, "roundtrip-cli": roundtrip_cli, "antichain": antichain}


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> list[Op]:
    """One cycle of the named workload: the seed fixes every input."""
    cfg = SIZES["smoke" if smoke else "full"]
    rng = random.Random(f"{name}:{seed}")
    cycle: list[Op] = []
    for part in range(cfg["copies"][name]):
        cycle += WORKLOADS[name](rng, cfg, part, workdir)
    return cycle
