"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them).  Criterion 6 checks the realization round trip of every class
that can be realized (4/4 for n = 3, 16/16 for n = 4, 174 of the 175 classes
for n = 5) and the certified refusal of the one that cannot.  A literal
175/175 is impossible: writing e_ij for the exponent of q_ij and
beta_ijk = e_ij + e_jk - e_ik for the character of b_ijk, the integer
identity beta_013 - beta_024 + beta_034 + beta_125 - beta_135 + beta_245
- beta_345 = beta_012 means every matrix whose point variety contains
those seven planes also contains P(0,1,2), which that class excludes.  The
test checks the identity numerically as well, on exact rational matrices.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

from conftest import (
    instantiate,
    is_rank_one,
    kernel_rank,
    monomial_variety_check,
    non_dense_adequate,
    prime_assignment,
    random_qmatrix,
    random_structured_qmatrix,
    rational_b,
)
from test_degeneration import P4_TYPES, check_graph_matches_reference, label_of
from test_realize import OBSTRUCTED

from qpoints.adequacy import enumerate_adequate, is_adequate
from qpoints.cli import main
from qpoints.degeneration import build_graph, enumerate_nodes, sinks
from qpoints.gallery import (
    block_matrix,
    p3_two_planes_matrix,
    pentagonal_collection,
    pentagonal_good_set,
    sign_matrix,
    transversal_collection,
)
from qpoints.lattice import closure, num_pairs, quartet_saturate
from qpoints.realize import forced_solutions
from qpoints.triples import TripleSet, all_triples
from qpoints.variety import good_triples


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def test_criterion_1_point_varieties_of_reference_matrices(tmp_path, capsys):
    t0 = time.monotonic()
    expectations = [
        (p3_two_planes_matrix(), "components: P(0,1,2) P(0,3) P(1,2,3)"),
        (block_matrix(), "components: P(0,1,2,3) P(0,1,4,5) P(2,3,4,5)"),
        (
            sign_matrix(),
            "components: P(0,1,2) P(0,1,4) P(0,2,5) P(0,3,4) P(0,3,5) "
            "P(1,2,3) P(1,3,5) P(1,4,5) P(2,3,4) P(2,4,5)",
        ),
    ]
    ok = True
    for i, (Q, expected_line) in enumerate(expectations):
        path = tmp_path / f"m{i}.json"
        path.write_text(Q.to_json())
        code = main(["pts", str(path)])
        out = capsys.readouterr().out
        ok = ok and code == 0 and expected_line in out
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report("criterion 1 (point varieties)", ok, f"{elapsed:.2f}s")
    assert ok


def test_criterion_2_adequate_counts():
    t0 = time.monotonic()
    c3 = enumerate_adequate(3)
    c4 = enumerate_adequate(4)
    c5 = enumerate_adequate(5)
    elapsed = time.monotonic() - t0
    ok = (
        (c3.total, len(c3)) == (12, 4)
        and (c4.total, len(c4)) == (314, 16)
        and len(c5) == 175
        and elapsed < 300.0
    )
    report(
        "criterion 2 (counts)",
        ok,
        f"n=3 {c3.total}/{len(c3)}, n=4 {c4.total}/{len(c4)}, n=5 {len(c5)} classes, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_non_dense_classification():
    found5 = non_dense_adequate(5)
    expected = {
        transversal_collection().canonical().mask,
        pentagonal_collection().canonical().mask,
    }
    ok = (
        {c.mask for c in found5} == expected
        and non_dense_adequate(3) == []
        and non_dense_adequate(4) == []
    )
    report("criterion 3 (non-dense classes)", ok)
    assert ok


def test_criterion_4_degeneration_graphs():
    t0 = time.monotonic()
    g3 = build_graph(3)
    chain_ok = [
        (node.label, node.type_vector) for node in g3.nodes
    ] == [(0, (1, 0, 0)), (1, (0, 2, 1)), (2, (0, 1, 3)), (3, (0, 0, 6))]
    ids3 = g3.ids()
    arrows_ok = [(ids3[u], ids3[v]) for (u, v) in g3.arrows] == [
        ("1", "0"), ("2", "1"), ("3", "2"),
    ]
    g4 = build_graph(4)
    multiset_ok = Counter(
        (node.label, node.type_vector) for node in g4.nodes
    ) == Counter((label_of(f), tv) for f, tv in P4_TYPES.items())
    iso_ok = len(g4.arrows) == 28 and check_graph_matches_reference(g4)
    elapsed = time.monotonic() - t0
    ok = chain_ok and arrows_ok and multiset_ok and iso_ok and elapsed < 60.0
    report("criterion 4 (graphs)", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_5_endpoints_and_forced_values():
    ok = len(sinks(3)) == 1 and len(sinks(4)) == 1
    s5 = sinks(5)
    masks = {node.closed_set.mask for node in s5}
    ok = ok and len(s5) >= 2
    ok = ok and TripleSet.full(5).canonical().mask in masks
    ok = ok and pentagonal_good_set().canonical().mask in masks
    family = forced_solutions(pentagonal_good_set(), [(i, 5) for i in range(5)])
    sols = family.solutions() if family.is_finite else []
    ok = ok and family.count == 2
    forced_pairs = [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]
    ok = ok and all(sol[p].is_one for sol in sols for p in forced_pairs)
    a_values = sorted(str(sol[(0, 1)]) for sol in sols)
    ok = ok and a_values == ["1", "w"]  # a = +1 and a = -1
    report(
        "criterion 5 (endpoints)",
        ok,
        f"sinks(5)={len(s5)}, forced solutions={family.count}",
    )
    assert ok


# The seven-term character identity that rules out the OBSTRUCTED class:
# b_012 = b_013 b_024^-1 b_034 b_125 b_135^-1 b_245 b_345^-1, each factor a
# (triple, exponent) pair over the seven planes of its complement.
FORCED_PLANE = (0, 1, 2)
SEVEN_TERM_IDENTITY = [
    ((0, 1, 3), 1), ((0, 2, 4), -1), ((0, 3, 4), 1), ((1, 2, 5), 1),
    ((1, 3, 5), -1), ((2, 4, 5), 1), ((3, 4, 5), -1),
]


def test_criterion_6_realization_round_trip():
    from qpoints.realize import realize_all

    counts = {}
    unexpected = []
    mismatched = []
    obstructed = []
    for n in (3, 4, 5):
        results = realize_all(n)
        counts[n] = (sum(r.success for r in results), len(results))
        for idx, r in enumerate(results):
            if not r.success:
                failure = (n, idx, r.method, r.detail)
                documented = (
                    n == 5
                    and r.method == "obstructed"
                    and r.target.canonical() == OBSTRUCTED.canonical()
                    and str(FORCED_PLANE) in r.detail
                )
                (obstructed if documented else unexpected).append(failure)
            elif good_triples(r.matrix).complement() != r.target:
                mismatched.append((n, idx))
    # the identity itself, checked numerically on exact rational matrices
    rng = random.Random(996)
    identity_violations = []
    for trial in range(20):
        Q = random_qmatrix(rng, 5)
        M = instantiate(Q, prime_assignment(Q))
        rhs = Fraction(1)
        for t, e in SEVEN_TERM_IDENTITY:
            rhs *= rational_b(M, t) ** e
        if rational_b(M, FORCED_PLANE) != rhs:
            identity_violations.append(trial)
    ok = (
        counts == {3: (4, 4), 4: (16, 16), 5: (174, 175)}
        and not unexpected
        and not mismatched
        and len(obstructed) == 1
        and not identity_violations
    )
    detail = "; ".join(f"n={n}: {s}/{c}" for n, (s, c) in counts.items())
    detail += f"; obstructed={[idx for _, idx, _, _ in obstructed]}"
    report("criterion 6 (realization)", ok, detail)
    assert ok, (
        f"realized/classes per n: {counts} (want 4/4, 16/16, 174/175); "
        f"unexpected failures (n, index, method, detail): {unexpected}; "
        f"round-trip mismatches (n, index): {mismatched}; "
        f"documented obstructions (want exactly one): {obstructed}; "
        f"seven-term identity violated on trials: {identity_violations}"
    )


def test_criterion_7a_oracle_equivalence():
    rng = random.Random(990)
    t0 = time.monotonic()
    checked = 0
    ok = True
    for _ in range(1000):
        n = rng.randint(2, 5)
        Q = (
            random_structured_qmatrix(rng, n)
            if rng.random() < 0.3
            else random_qmatrix(rng, n)
        )
        M = instantiate(Q, prime_assignment(Q))
        for t in all_triples(n):
            ok = ok and (Q.b(t).is_one == (rational_b(M, t) == 1))
        checked += 1
    report(
        "criterion 7a (oracle equivalence)",
        ok,
        f"{checked} matrices in {time.monotonic() - t0:.1f}s",
    )
    assert ok


def test_criterion_7b_rank_one_equivalence():
    rng = random.Random(991)
    ok = True
    for n in (2, 3, 4, 5):
        for _ in range(8):
            Q = (
                random_structured_qmatrix(rng, n)
                if rng.random() < 0.5
                else random_qmatrix(rng, n)
            )
            good = good_triples(Q)
            for size in range(1, n + 2):
                for S in itertools.combinations(range(n + 1), size):
                    expected = all(
                        t in good.triples
                        for t in itertools.combinations(S, 3)
                    )
                    ok = ok and is_rank_one(Q, S) == expected
    report("criterion 7b (rank-one equivalence)", ok)
    assert ok


def test_criterion_7c_complements_are_adequate():
    rng = random.Random(992)
    ok = True
    for _ in range(300):
        n = rng.randint(2, 5)
        Q = (
            random_structured_qmatrix(rng, n)
            if rng.random() < 0.5
            else random_qmatrix(rng, n)
        )
        ok = ok and is_adequate(good_triples(Q).complement())
    report("criterion 7c (complements adequate)", ok)
    assert ok


def test_criterion_7d_closure_operator():
    rng = random.Random(993)
    ok = True
    for _ in range(200):
        n = rng.randint(3, 5)
        trips = all_triples(n)
        J = TripleSet.of(n, rng.sample(trips, rng.randint(0, min(6, len(trips)))))
        K = J | [trips[rng.randrange(len(trips))]]
        cJ = closure(J)
        ok = ok and J.triples <= cJ.triples
        ok = ok and closure(cJ) == cJ
        ok = ok and cJ.triples <= closure(K).triples
        ok = ok and quartet_saturate(J).triples <= cJ.triples
    # exhaustive agreement of rule and closure in four variables
    for mask in range(1 << 4):
        J = TripleSet(3, mask)
        ok = ok and quartet_saturate(J) == closure(J)
    report("criterion 7d (closure operator)", ok)
    assert ok


def test_criterion_7e_kernel_rank():
    ok = all(kernel_rank(n) == num_pairs(n) - n for n in (2, 3, 4, 5))
    report("criterion 7e (kernel rank)", ok)
    assert ok


def test_criterion_7f_monomial_check_per_node():
    ok = True
    for n in (2, 3, 4):
        for node in enumerate_nodes(n):
            ok = ok and monomial_variety_check(node.closed_set, samples=10)
    report("criterion 7f (monomial variety check)", ok)
    assert ok
