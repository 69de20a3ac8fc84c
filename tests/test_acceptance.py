"""Acceptance suite: twelve end-to-end checks, one verdict line each.

Each test prints a single "AC-n: PASS/FAIL (detail)" line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines as they complete.  The whole suite takes a few
minutes, dominated by the hundred-seed recovery sweeps.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  (kept for multi-core boxes)

import numpy as np
import pytest
from scipy import stats

from gf2_oracle import express_in_span
from lpn.gf2 import BitVec, BlockLayout, pack_words
from lpn.instance import new_source
from lpn.online import run_online
from lpn.solvers import (
    ISample,
    SolverConfig,
    SolverStatus,
    collect_votes,
    merge_step,
    mle_bruteforce,
    predicted_bias,
    recover_target,
    repetitions_for,
    xor_chain_oracle,
)
from lpn.sq import (
    FiniteDistribution,
    UnlabeledDraws,
    basis_query_learner,
    concept_class,
    kwise_answer,
    kwise_to_unary_reduce,
    make_unary_oracle,
    named_query,
    parity_concept,
    sq_dimension,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# AC-1: full recovery at k=24, eta=0.125, over one hundred seeds


def test_ac01_recovers_k24_at_medium_noise():
    cfg = SolverConfig(BlockLayout(3, 8),
                       repetitions=repetitions_for(24, 0.125, 0.1, 3))
    assert cfg.repetitions == 124
    t0 = time.perf_counter()
    wins = 0
    for seed in range(100):
        src = new_source(24, 0.125, seed=seed)
        res = recover_target(src, cfg)
        if (res.status is SolverStatus.RECOVERED
                and res.c_hat == src.target):
            wins += 1
    dt = time.perf_counter() - t0
    _verdict("AC-1", wins >= 90, f"{wins}/100 exact recoveries in {dt:.0f}s")


# ---------------------------------------------------------------------------
# AC-2: block-merge agrees with brute-force likelihood at k=16, eta=0.2


def test_ac02_matches_mle_at_k16():
    cfg = SolverConfig(BlockLayout(2, 8),
                       repetitions=repetitions_for(16, 0.2, 0.1, 2))
    t0 = time.perf_counter()
    agree = 0
    for seed in range(100):
        src = new_source(16, 0.2, seed=seed)
        words, labels, _ = src.draw_batch(2000, packed=True)
        h = mle_bruteforce(words, labels, 16)
        res = recover_target(src, cfg)
        if (h == src.target
                and res.status is SolverStatus.RECOVERED
                and res.c_hat == src.target):
            agree += 1
    dt = time.perf_counter() - t0
    _verdict("AC-2", agree >= 95,
             f"{agree}/100 seeds with both solvers on the planted target, "
             f"{dt:.0f}s")


# ---------------------------------------------------------------------------
# AC-3: simulated chain bias tracks the closed form across a grid


def test_ac03_chain_bias_grid():
    trials = 1_000_000
    worst = 0.0
    misses = []
    t0 = time.perf_counter()
    for idx, (eta, s) in enumerate(
        (e, s) for e in (0.05, 0.125, 0.25, 0.4) for s in (1, 2, 4, 8, 16)
    ):
        p = predicted_bias(eta, s)
        m = xor_chain_oracle(eta, s, trials, seed=300 + idx)
        sigma = math.sqrt(p * (1 - p) / trials)
        pull = abs(m - p) / sigma if sigma > 0 else 0.0
        worst = max(worst, pull)
        if abs(m - p) > 3 * sigma:
            misses.append((eta, s, m, p))
    dt = time.perf_counter() - t0
    _verdict("AC-3", not misses and dt < 60,
             f"20/20 cells within 3 sigma (worst {worst:.2f} sigma), {dt:.1f}s")


# ---------------------------------------------------------------------------
# AC-4: merge-step structure on five hundred random inputs


def _row_words(bits, labels):
    """(s, a*b) 0/1 rows and their labels as int64 row words."""
    return pack_words(bits)[:, 0].view(np.int64) | labels.astype(np.int64) << 63


def test_ac04_merge_invariants_random():
    rng = np.random.default_rng(400)
    bad = 0
    for _ in range(500):
        a = int(rng.integers(2, 5))
        b = int(rng.integers(1, 7))
        i = int(rng.integers(0, a - 1))
        s = int(rng.integers(2, 4097))
        layout = BlockLayout(a, b)
        bits = rng.integers(0, 2, size=(s, layout.total), dtype=np.uint8)
        bits[:, (a - i) * b:] = 0  # an i-sample: last i blocks zero
        labels = rng.integers(0, 2, size=s, dtype=np.uint8)
        words = _row_words(bits, labels)
        prov = np.arange(s)[:, None]
        sample = ISample(i, layout, words.copy(), prov)
        out = merge_step(sample, rng)
        try:
            if len(out) < s - 2 ** b:
                raise AssertionError("merge lost more than one per class")
            if out.i != i + 1:
                raise AssertionError("level did not advance")
            pairs = out.provenance
            if pairs.shape[1] != 2 or (pairs[:, 0] == pairs[:, 1]).any():
                raise AssertionError("output is not a pair of inputs")
            out.validate(originals=words)
        except AssertionError:
            bad += 1
    _verdict("AC-4", bad == 0, f"{500 - bad}/500 merges structurally exact")


# ---------------------------------------------------------------------------
# AC-5: merged rows stay uniform over the reduced subspace


def test_ac05_merge_output_uniformity():
    layout = BlockLayout(2, 4)
    s = 100 * 2 ** 4
    passes = 0
    for r in range(20):
        rng = np.random.default_rng(500 + r)
        bits = rng.integers(0, 2, size=(s, 8), dtype=np.uint8)
        labels = rng.integers(0, 2, size=s, dtype=np.uint8)
        out = merge_step(ISample(0, layout, _row_words(bits, labels)), rng)
        counts = np.bincount(out.words & 15, minlength=16)
        if stats.chisquare(counts).pvalue >= 0.001:
            passes += 1
    _verdict("AC-5", passes >= 18,
             f"{passes}/20 runs uniform at the 0.001 level")


# ---------------------------------------------------------------------------
# AC-6 and AC-7: the online decoder at scale


ONLINE_T = math.ceil((2 ** 16) ** (2 / 3))  # 1626


@pytest.fixture(scope="module")
def online_reports():
    noisy = run_online(new_source(8, 0.25, seed=601), 2, 4, ONLINE_T,
                       count=2 ** 16)
    clean = run_online(new_source(8, 0.0, seed=602), 2, 4, ONLINE_T,
                       count=2 ** 16)
    return noisy, clean


def test_ac06_online_error_and_label_budget(online_reports):
    noisy, clean = online_reports
    cap = ONLINE_T * 2 * (2 ** 4 - 1)
    rate = noisy.errors / noisy.predicted
    ok = (noisy.unknown <= cap and clean.unknown <= cap
          and rate <= 0.01 and clean.errors == 0)
    _verdict("AC-6", ok,
             f"unknowns {noisy.unknown} <= {cap}, error rate {rate:.4f}, "
             f"clean control {clean.errors} errors")


def test_ac07_online_vote_depth_bound(online_reports):
    noisy, clean = online_reports
    ok = noisy.max_vote_depth <= 4 and clean.max_vote_depth <= 4
    _verdict("AC-7", ok,
             f"max vote depths {noisy.max_vote_depth} and "
             f"{clean.max_vote_depth}, bound 4")


# ---------------------------------------------------------------------------
# AC-8: query dimension of the full parity classes


def test_ac08_parity_class_dimension():
    t0 = time.perf_counter()
    got = []
    for j in range(2, 9):
        concepts, dist = concept_class(f"parity:{j}-of-{j}")
        rep = sq_dimension(concepts, dist)
        got.append((j, rep.d, rep.max_abs_correlation))
    dt = time.perf_counter() - t0
    ok = all(d == 2 ** j and corr == 0.0 for j, d, corr in got) and dt < 60
    _verdict("AC-8", ok,
             f"d = 2^j with zero correlation for j = 2..8, {dt:.1f}s")


# ---------------------------------------------------------------------------
# AC-9: the pairwise query reduction meets its error bound


def test_ac09_reduction_error_bound():
    dist = FiniteDistribution.uniform_over(4)
    query = named_query("labels-agree")
    eps = 0.05
    bound = 4 * eps * (2 ** 2 - 1) / 2 ** 2
    worst = 0.0
    ok = True
    for mask in range(1, 16):
        c = parity_concept(mask, 4)
        out = kwise_to_unary_reduce(query, eps, make_unary_oracle(c, dist),
                                    UnlabeledDraws(dist), seed=mask)
        if out.kind != "estimate":
            ok = False
            break
        err = abs(out.estimate - kwise_answer(query, c, dist))
        worst = max(worst, err)
        ok = ok and err <= bound
    _verdict("AC-9", ok,
             f"15/15 parities estimated, worst error {worst:.4f} <= {bound:.2f}")


# ---------------------------------------------------------------------------
# AC-10: the reduction finds the planted correlation


def test_ac10_reduction_weak_hypothesis():
    dist = FiniteDistribution.uniform_over(4)
    c = parity_concept(0b0001, 4)
    out = kwise_to_unary_reduce(named_query("label-is-first-coord"), 0.05,
                                make_unary_oracle(c, dist),
                                UnlabeledDraws(dist), seed=0)
    ok = out.kind == "weak_hypothesis" and out.advantage >= 0.45
    _verdict("AC-10", ok,
             f"outcome {out.kind}, advantage {out.advantage}")


# ---------------------------------------------------------------------------
# AC-11: the basis-query learner on every target


def test_ac11_basis_learner_exhaustive():
    t0 = time.perf_counter()
    wrong = 0
    total = 0
    for k in (2, 3, 4):
        for mask in range(2 ** k):
            total += 1
            learned = basis_query_learner(k, parity_concept(mask, k))
            if learned.bits != mask:
                wrong += 1
    dt = time.perf_counter() - t0
    _verdict("AC-11", wrong == 0,
             f"{total - wrong}/{total} targets recovered exactly, {dt:.0f}s")


# ---------------------------------------------------------------------------
# AC-12: block merging beats one-shot elimination at a shared noise rate


def test_ac12_depth_four_votes_beat_full_elimination():
    eta = 0.1
    layout = BlockLayout(3, 8)
    budget = 4_000_000

    # the full solve fits the budget
    cfg = SolverConfig(layout, repetitions=repetitions_for(24, eta, 0.1, 3),
                       max_examples=budget)
    src = new_source(24, eta, seed=1201)
    res = recover_target(src, cfg)
    solved = (res.status is SolverStatus.RECOVERED
              and res.c_hat == src.target
              and res.examples_used <= budget)

    # per-vote correctness of depth-4 merge votes
    n = 10_000
    vsrc = new_source(24, eta, seed=1202)
    truth = vsrc.target.bit(0)
    votes = collect_votes(vsrc, SolverConfig(layout, repetitions=1), n)
    merge_frac = sum(1 for lab, _ in votes if lab == truth) / n
    merge_p = predicted_bias(eta, 2 ** (layout.a - 1))
    merge_sig = math.sqrt(merge_p * (1 - merge_p) / n)
    merge_ok = abs(merge_frac - merge_p) <= 3 * merge_sig

    # per-vote correctness of one-shot elimination votes: express the
    # probe in the span of fresh rows and XOR the labels used
    gsrc = new_source(24, eta, seed=1203)
    truth_g = gsrc.target.bit(0)
    probe = BitVec(24, 1)
    correct = 0
    chain_ps = []
    for _ in range(n):
        while True:
            bits, labels, _ = gsrc.draw_batch(40)
            rows = [BitVec.from_bits_row(r) for r in bits]
            subset = express_in_span(rows, probe)
            if subset is not None:
                break
        pred = 0
        for j in subset:
            pred ^= int(labels[j])
        correct += pred == truth_g
        chain_ps.append(predicted_bias(eta, len(subset)))
    elim_frac = correct / n
    elim_p = float(np.mean(chain_ps))
    elim_sig = math.sqrt(sum(p * (1 - p) for p in chain_ps)) / n
    elim_ok = abs(elim_frac - elim_p) <= 3 * elim_sig

    separated = merge_frac - elim_frac >= 0.1
    ok = solved and merge_ok and elim_ok and separated
    _verdict(
        "AC-12", ok,
        f"k=24 solved with {res.examples_used} <= {budget} examples; "
        f"merge votes {merge_frac:.4f} vs formula {merge_p:.4f}, "
        f"elimination votes {elim_frac:.4f} vs formula {elim_p:.4f}, "
        f"both within 3 sigma and separated",
    )
