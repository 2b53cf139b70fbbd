"""Seeded matrix files for the pts workload, and an independent oracle.

Every matrix is built from rank-one blocks: inside a block, q_ij = t_i / t_j
for per-index potentials t_i, so every triple inside a block is good.  Pairs
outside all blocks get a fresh generator, which no other entry shares, so a
triple touching such a pair is obstructed -- except for a few planted
triples whose third entry is set to the product of the other two.  The
largest block is therefore the largest flat of the point variety.

The schedule of (n, largest block, torsion) is fixed, and so are each
slot's encoding and generator list; the seed chooses the index sets, the
exponents, the torsion phases and the order of the stream.  A fixed
schedule keeps the per-job latency distribution the same from seed to
seed, so the percentiles of different seeds can be compared.

The oracle computes good triples with plain integer exponent arithmetic on
the parsed JSON, without importing qpoints.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb
from pathlib import Path

#: (n, size of the largest block, entries carry torsion).  The light jobs
#: (n <= 12 or a small largest block) set the median latency through
#: parsing and good_triples; the heavy jobs (n >= 13 with a large block)
#: set the tail through the 2^(n+1) flat table of components.  Heavy jobs
#: are 20% of the stream, so the 90th percentile falls inside them.
SCHEDULE: tuple[tuple[int, int, bool], ...] = (
    (3, 3, False), (3, 4, True), (4, 3, False), (4, 5, True),
    (5, 3, True), (5, 4, False), (5, 6, False), (6, 3, False),
    (6, 5, True), (7, 4, False), (7, 6, True), (8, 3, True),
    (8, 5, False), (9, 4, False), (9, 7, True), (10, 3, False),
    (10, 6, True), (11, 4, True), (11, 5, False), (12, 3, False),
    (12, 4, True), (13, 3, False), (14, 3, True), (15, 3, False),
    (16, 3, True), (8, 9, False), (9, 4, True), (10, 5, False),
    (7, 8, True), (6, 7, False), (11, 3, True), (12, 5, False),
    (13, 10, False), (14, 9, True), (14, 12, False), (15, 10, True),
    (15, 13, False), (16, 11, True), (16, 14, False), (16, 17, True),
)

#: Torsion moduli drawn for matrices whose entries carry torsion.
MODULI = (2, 3, 4, 6)


def _scalar_text(exps: dict[str, int], torsion: int) -> str:
    parts = [g if e == 1 else f"{g}^{e}" for g, e in sorted(exps.items()) if e]
    if torsion:
        parts.append("w" if torsion == 1 else f"w^{torsion}")
    return "*".join(parts) or "1"


def _add(a: dict[str, int], b: dict[str, int], sign: int = 1) -> dict[str, int]:
    out = dict(a)
    for g, e in b.items():
        out[g] = out.get(g, 0) + sign * e
    return {g: e for g, e in out.items() if e}


def make_matrix(rng: random.Random, n: int, largest: int, torsion: bool, as_objects: bool, listed: bool) -> tuple[dict, dict]:
    """One matrix as JSON data, plus the facts of its construction.

    The shape (block sizes, generators per entry, encoding) depends only on
    the arguments; the seeded rng chooses indices, exponents and phases.
    """
    modulus = rng.choice(MODULI) if torsion else 2
    order = list(range(n + 1))
    rng.shuffle(order)
    blocks = [sorted(order[:largest])]
    rest = order[largest:]
    while min(len(rest), largest - 1) >= 3:
        size = min(len(rest), largest - 1)
        blocks.append(sorted(rest[:size]))
        rest = rest[size:]
    block_of = {i: b for b, members in enumerate(blocks) for i in members}

    def phase() -> int:
        return rng.randrange(modulus) if torsion else 0

    potential = {}
    for i in range(n + 1):
        other = rng.choice([v for v in range(n + 1) if v != i])
        potential[i] = ({f"t{i}": rng.choice((1, 2, -1)), f"t{other}": 1}, phase())

    entries: dict[tuple[int, int], tuple[dict[str, int], int]] = {}
    free = set()
    for i, j in itertools.combinations(range(n + 1), 2):
        if i in block_of and block_of.get(j) == block_of[i]:
            (ei, ti), (ej, tj) = potential[i], potential[j]
            entries[(i, j)] = (_add(ei, ej, -1), (ti - tj) % modulus)
        else:
            exps = _add({f"x{i}_{j}": rng.choice((1, -1, 2, 3))}, potential[rng.randrange(n + 1)][0])
            entries[(i, j)] = (exps, phase())
            free.add((i, j))

    # Planted good triples use three free pairs, each at most once, so they
    # never enlarge a block: the largest flat stays the largest block.
    used: set[tuple[int, int]] = set()
    planted = []
    for i, j, k in rng.sample(list(itertools.combinations(range(n + 1), 3)), min(40, comb(n + 1, 3))):
        pairs = [(i, j), (j, k), (i, k)]
        if len(planted) >= 2:
            break
        if all(p in free and p not in used for p in pairs):
            (eij, tij), (ejk, tjk) = entries[(i, j)], entries[(j, k)]
            entries[(i, k)] = (_add(eij, ejk), (tij + tjk) % modulus)
            used.update(pairs)
            planted.append((i, j, k))

    upper = {}
    for (i, j), (exps, t) in sorted(entries.items()):
        if as_objects:
            upper[f"{i},{j}"] = {"torsion": t, "exponents": dict(sorted(exps.items()))}
        else:
            upper[f"{i},{j}"] = _scalar_text(exps, t)
    data = {"n": n, "torsion_modulus": modulus, "upper": upper}
    if listed:
        data["generators"] = sorted({g for exps, _ in entries.values() for g in exps})
    return data, {"n": n, "largest_flat": largest, "torsion": torsion}


def _parse_entry(value, modulus: int) -> tuple[dict[str, int], int]:
    if isinstance(value, str):
        exps: dict[str, int] = {}
        torsion = 0
        text = value.strip()
        if text not in ("", "1"):
            for token in text.split("*"):
                name, _, power = token.strip().partition("^")
                e = int(power) if power else 1
                if name == "w":
                    torsion += e
                else:
                    exps[name] = exps.get(name, 0) + e
        return exps, torsion % modulus
    return dict(value.get("exponents", {})), int(value.get("torsion", 0)) % modulus


def oracle_good_triples(data: dict) -> list[list[int]]:
    """Good triples of a matrix in the JSON file format, by exponent sums.

    b_ijk = q_ij * q_jk / q_ik is 1 exactly when every generator exponent
    and the torsion phase of q_ij + q_jk - q_ik vanish.
    """
    n = int(data["n"])
    modulus = int(data.get("torsion_modulus", 2))
    q = {}
    for key, value in data["upper"].items():
        i, j = (int(v) for v in key.split(","))
        q[(i, j)] = _parse_entry(value, modulus)
    good = []
    for i, j, k in itertools.combinations(range(n + 1), 3):
        (eij, tij), (ejk, tjk), (eik, tik) = q[(i, j)], q[(j, k)], q[(i, k)]
        if not _add(_add(eij, ejk), eik, -1) and (tij + tjk - tik) % modulus == 0:
            good.append([i, j, k])
    return good


def generate(seed: int, directory: Path) -> tuple[list[Path], list[dict], dict]:
    """Write one matrix file per SCHEDULE slot, in a seeded order.

    Returns the paths, the expected facts per file (including the oracle's
    good triples) and a summary of the mix.
    """
    rng = random.Random(seed)
    slots = list(enumerate(SCHEDULE))
    rng.shuffle(slots)
    directory.mkdir(parents=True, exist_ok=True)
    paths, expected = [], []
    for index, (slot, (n, largest, torsion)) in enumerate(slots):
        # Encoding and generator list are fixed per slot, so the cost of
        # parsing does not change with the seed.
        data, facts = make_matrix(rng, n, largest, torsion, slot % 2 == 0, slot % 4 < 2)
        facts["good_triples"] = oracle_good_triples(data)
        path = directory / f"m{index:03d}.json"
        path.write_text(json.dumps(data, indent=1))
        paths.append(path)
        expected.append(facts)
    mix = {
        "matrices": len(expected),
        "n": {str(n): sum(1 for f in expected if f["n"] == n) for n in sorted({f["n"] for f in expected})},
        "largest_flat": {
            str(k): sum(1 for f in expected if f["largest_flat"] == k)
            for k in sorted({f["largest_flat"] for f in expected})
        },
        "torsion_share": sum(1 for f in expected if f["torsion"]) / len(expected),
    }
    return paths, expected, mix
