"""Seeded request lists for the four benchmark workloads.

Nothing here imports persum. A workload is a list of Op built from the seed
alone, so two commits given the same seed run byte-identical argv, and the
expectations the oracles check against come from arithmetic of their own.

The costly part of each request (its period system, or its list of moduli)
comes from a pool that is the same for every seed, drawn stratified by a
cost model: the i-th system is the middle of the i-th of n equal slices of
the candidates ranked by cost. The seed sets everything else: the order of
the requests and of their periods, the values, residues and arguments.
So every seed puts the same load on the program and the spread between
seeds is the machine's, while the inputs still differ from seed to seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field

# Paths in argv are relative to the checkout root, where every op runs.
WORK_DIR = "perfbench/_work"

WORKLOADS = ("table", "query", "analyze", "cli")


@dataclass
class Op:
    """One request: the argv persum receives, and what its oracle needs."""

    kind: str
    argv: list[str]
    expect: dict
    stdin: str | None = None
    out_path: str | None = None
    meta: dict = field(default_factory=dict)

    def input_sha(self) -> str:
        return hashlib.sha256(json.dumps([self.argv, self.stdin]).encode()).hexdigest()


def inputs_sha(ops: list[Op]) -> str:
    """One hash over every op's argv and stdin, in order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.input_sha().encode())
    return h.hexdigest()


# -- number theory, kept apart from persum's own ------------------------------


def divisors(n: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small) | {n // d for d in small})


def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    return result - result // m if m > 1 else result


def closure(periods) -> set[int]:
    return {d for n in periods for d in divisors(n)}


def spectrum_size(periods) -> int:
    """l as a totient sum; the oracles count fractions instead."""
    return sum(totient(d) for d in closure(periods))


def antichains(max_period: int, max_k: int, max_lcm: int) -> list[tuple[int, ...]]:
    """Period systems in which no period divides another, one per divisor closure."""
    out = []
    for k in range(1, max_k + 1):
        for ps in itertools.combinations(range(1, max_period + 1), k):
            if math.lcm(*ps) > max_lcm:
                continue
            if any(b % a == 0 for a, b in itertools.combinations(ps, 2)):
                continue
            out.append(ps)
    return out


def fill_cost(ps) -> int:
    """Work units of the full table: the O(l^2)-per-row fill plus serialization."""
    n, l = math.lcm(*ps), spectrum_size(ps)
    return (n - l) * l * l + 20 * n * l


def cascade_cost(ps) -> int:
    """Work units of a cold characteristic polynomial: dividing x^d - 1 down to
    the d-th cyclotomic polynomial costs about d * (d - phi(d))."""
    return sum(d * (d - totient(d)) for d in closure(ps)) + spectrum_size(ps) ** 2 // 8


def stratified(items, key, n: int, rng: random.Random | None, skew: float = 1.0) -> list:
    """n distinct items, the i-th drawn from the i-th of n slices of the
    items ranked by key, or the middle of each slice when rng is None.
    skew > 1 maps slice positions q to q**skew, which thins out the costly
    end while keeping one draw there."""
    ranked = sorted(items, key=key)
    used: set[int] = set()
    picks = []
    for i in range(n):
        u = rng.random() if rng else 0.5
        j = min(int(((i + u) / n) ** skew * len(ranked)), len(ranked) - 1)
        while j in used:
            j = (j + 1) % len(ranked)
        used.add(j)
        picks.append(ranked[j])
    return picks


def symmetric(rng: random.Random, bound: int) -> int:
    return rng.randint(-bound, bound)


def random_components(rng, periods, group):
    """Component values for each period; group is ("int",), ("mod", m) or ("vec", d)."""
    if group[0] == "vec":
        return [[[symmetric(rng, 10**6) for _ in range(group[1])] for _ in range(n)] for n in periods]
    bound = group[1] if group[0] == "mod" else 10**6
    return [[symmetric(rng, bound) for _ in range(n)] for n in periods]


def psi_at(components, group, x: int):
    """The sum of the periodic components at x, evaluated directly."""
    values = [comp[x % len(comp)] for comp in components]
    if group[0] == "vec":
        return [sum(col) for col in zip(*values)]
    total = sum(values)
    return total % group[1] if group[0] == "mod" else total


def value_token(value, group) -> str:
    return ",".join(map(str, value)) if group[0] == "vec" else str(value)


def hits_vec_defect(op: Op) -> bool:
    """argparse reads a --vec value whose first entry is negative as an option,
    so persum rejects such a request with exit 2 (a known defect)."""
    return op.kind == "extrapolate" and op.expect["group"][0] == "vec" and any(
        tok.startswith("-") for tok in op.meta["initial_tokens"]
    )


# -- request builders ----------------------------------------------------------


def coeffs_op(rng, periods, out_path: str | None) -> Op:
    order = rng.sample(list(periods), len(periods))
    argv = ["coeffs", *map(str, order)]
    if out_path:
        argv += ["--out", out_path]
    psi = random_components(rng, order, ("int",))
    return Op("coeffs", argv, {"periods": order, "psi": psi}, out_path=out_path,
              meta={"N": math.lcm(*order), "l": spectrum_size(order)})


def extrapolate_op(rng, periods, group) -> Op:
    order = rng.sample(list(periods), len(periods))
    if rng.random() < 0.25:
        order.insert(rng.randrange(len(order) + 1), rng.choice(order))
    l = spectrum_size(order)
    comps = random_components(rng, order, group)
    tokens = [value_token(psi_at(comps, ("int",) if group[0] == "mod" else group, r), group)
              for r in range(l)]
    x = rng.randint(-10**18, 10**18)
    argv = ["extrapolate", "--periods", *map(str, order), "--initial", *tokens, "--at", str(x)]
    argv += {"int": ["--int"], "mod": ["--mod", str(group[-1])], "vec": ["--vec", str(group[-1])]}[group[0]]
    expect = {"periods": order, "group": list(group), "x": x, "value": psi_at(comps, group, x)}
    return Op("extrapolate", argv, expect, meta={"N": math.lcm(*order), "l": l, "initial_tokens": tokens})


def system_op(kind: str, periods) -> Op:
    return Op(kind, [kind, *map(str, periods)], {"periods": list(periods)},
              meta={"N": math.lcm(*periods), "l": spectrum_size(periods)})


def cover_op(classes, extra: list[str], use_stdin: bool) -> Op:
    lines = [f"{a} mod {n}" for a, n in classes]
    argv = ["cover", *(["-"] if use_stdin else ["--classes", *lines]), *extra]
    moduli = [n for _, n in classes]
    return Op("cover", argv, {"classes": classes, "extra": extra},
              stdin="\n".join(lines) + "\n" if use_stdin else None,
              meta={"N": math.lcm(*moduli), "l": spectrum_size(moduli)})


def finewilf_op(rng, m: int, n: int) -> Op:
    first = [symmetric(rng, 9) for _ in range(m)]
    if rng.random() < 0.25 and n % m == 0:
        second = first * (n // m)  # the same map, so the gcd is 0
    else:
        second = [symmetric(rng, 9) for _ in range(n)]
    argv = ["finewilf", "--first", *map(str, first), "--second", *map(str, second)]
    return Op("finewilf", argv, {"first": first, "second": second},
              meta={"N": math.lcm(m, n), "l": m + n - math.gcd(m, n)})


def random_group(rng, i: int):
    return [("int",), ("mod", rng.randint(2, 10**9)), ("vec", 3)][i % 3]


# -- workloads -----------------------------------------------------------------


def table_ops(rng: random.Random) -> list[Op]:
    """100 coeffs --out requests, each with its own divisor closure."""
    systems = stratified(antichains(60, 3, 600), fill_cost, 100, None, skew=3.0)
    rng.shuffle(systems)
    return [coeffs_op(rng, ps, f"{WORK_DIR}/table-{i}.json") for i, ps in enumerate(systems)]


def query_ops(rng: random.Random) -> list[Op]:
    """156 extrapolate requests over one pool of 13 systems, 12 requests
    each, the groups cycling through int, mod and vec. The pool is the same
    for every seed: with so few systems, the latency percentiles would
    otherwise move with whichever system a seed drew for the middle slice.
    With 8 passing requests per system, p50 and p90 fall inside a system's
    cluster of times, not on the edge between two."""
    pool = stratified(antichains(60, 3, 420), fill_cost, 13, None, skew=1.5)
    ops = [extrapolate_op(rng, pool[i % 13], random_group(rng, i // 13)) for i in range(156)]
    rng.shuffle(ops)
    return ops


def analyze_ops(rng: random.Random) -> list[Op]:
    """40 spectrum, 40 charpoly and 40 cover requests."""
    pool = random.Random("analyze-pool")  # the systems and moduli, the same for every seed
    divs = sorted(set(divisors(5040)) | set(divisors(27720)))
    candidates = set()
    while len(candidates) < 1500:
        ps = tuple(sorted(pool.sample(divs, pool.randint(1, 4))))
        if math.lcm(*ps) <= 30000 and cascade_cost(ps) <= 5_000_000:
            candidates.add(ps)
    candidates = sorted(candidates)
    ops = [system_op("spectrum", rng.sample(ps, len(ps)))
           for ps in stratified(candidates, lambda ps: sum(ps), 40, None)]
    ops += [system_op("charpoly", rng.sample(ps, len(ps)))
            for ps in stratified(candidates, cascade_cost, 40, None, skew=2.0)]
    for i in range(40):
        moduli = [pool.randint(100, 150) for _ in range(8 + int((i + 0.5) / 40 * 53))]
        classes = [(rng.randrange(n), n) for n in rng.sample(moduli, len(moduli))]
        extra = ["--odd", "--check", "3", "1", "--gcd-window",
                 str(symmetric(rng, 10**6)), str(symmetric(rng, 3))]
        ops.append(cover_op(classes, extra, use_stdin=False))
    rng.shuffle(ops)
    return ops


def cli_ops(rng: random.Random) -> list[Op]:
    """108 small requests, 18 of each subcommand, every N at most 60."""
    pool = random.Random("cli-pool")  # the systems and sizes, the same for every seed
    systems = antichains(60, 3, 60)
    ops = []
    for i in range(18):
        for kind in ("spectrum", "charpoly"):
            ps = pool.choice(systems)
            ops.append(system_op(kind, rng.sample(ps, len(ps))))
        ops.append(coeffs_op(rng, pool.choice(systems), None))
        ops.append(extrapolate_op(rng, pool.choice(systems), random_group(rng, i)))
        moduli = pool.choice([ps for ps in systems if len(ps) > 1])
        classes = [(rng.randrange(n), n) for n in moduli for _ in range(pool.randint(1, 3))]
        ops.append(cover_op(classes, ["--odd", "--check", "2", "1"], use_stdin=i % 2 == 0))
        m, n = pool.sample(range(1, 31), 2)
        ops.append(finewilf_op(rng, m, n))
    rng.shuffle(ops)
    return ops


BUILDERS = {"table": table_ops, "query": query_ops, "analyze": analyze_ops, "cli": cli_ops}


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
