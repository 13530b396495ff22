"""Acceptance suite: one test per committed criterion, each printing a
pass/fail line with its measured quantities.

Expected values tagged as derived in the criteria are computed by
independent oracles (direct Fraction arithmetic, itertools enumeration,
closed forms); empirical thresholds run at the committed calibration
constants.
"""

import time
from fractions import Fraction as F

import numpy as np

from vdo.adversaries import AdversarySpec
from vdo.argument import SpotCheckBackend
from vdo.bench import (
    GeneralTrialSpec,
    IdentityTrialSpec,
    LabelTrialSpec,
    identity_trial,
    general_trial,
    label_trial,
    make_dist,
    measure_scaling,
    run_trials,
    trial_seed,
)
from vdo.commitment import (
    Digest,
    digest,
    extract,
    gen,
    open_batch,
    open_element,
    verify_opening,
)
from vdo.dist import (
    GrainDistribution,
    bucket_grid,
    exact_histogram,
    random_distribution,
    uniform,
)
from vdo.properties import (
    estimate_histogram,
    histogram_sample_budget,
    make_fixed_target,
    run_label_invariant_argument,
)
from vdo.protocol import (
    HonestProver,
    VerifierConfig,
    empty_generator,
    run_oracle_session,
)
from vdo.rngutil import derive_key, rng_from
from vdo.testers import DSampler, identity_d_budget, _slot_counts

from conftest import Opening, tv_oracle

JOBS = 2


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: commitment completeness -------------------------------------------


def test_c01_commitment_completeness():
    started = time.time()
    rng = rng_from(101, "c1")
    failures = 0
    checked = 0
    for t in range(100):
        n = int(rng.integers(2, 1025))
        q = random_distribution(n, rng_from(101, "c1q", t))
        key = gen(128, n, rng)
        dg, aux = digest(key, q)
        for x, row in enumerate(open_batch(np.arange(1, n + 1), dg, aux), 1):
            record = row.tobytes()
            p = Opening.from_bytes(record)
            ok = (
                verify_opening(x, record, key, dg)
                and p.claimed_pdf == q.pdf_grains(x)
                and p.claimed_cdf == q.cdf_grains(x)
            )
            failures += not ok
            checked += 1
    elapsed = time.time() - started
    _report(
        1,
        failures == 0 and elapsed < 60,
        f"{checked} openings over 100 random (N,G,Q), {failures} failures, {elapsed:.1f}s",
    )


# -- criterion 2: tamper rejection ----------------------------------------------------


def test_c02_tamper_rejection():
    rng = rng_from(102, "c2")
    contexts = []
    for t in range(10):
        n = int(rng.integers(2, 200))
        q = random_distribution(n, rng_from(102, "c2q", t))
        key = gen(128, n, rng)
        dg, aux = digest(key, q)
        x = int(rng.integers(1, n + 1))
        contexts.append((key, dg, x, open_element(x, key, dg, aux)))

    collisions = []
    for trial in range(1000):
        key, dg, x, proof = contexts[trial % len(contexts)]
        target = trial % 3  # proof bytes / claim fields / digest bytes
        if target in (0, 1):
            blob = bytearray(proof)
            pos = int(rng.integers(8, 24)) if target == 1 else int(rng.integers(0, len(blob)))
            blob[pos] ^= 1 << int(rng.integers(0, 8))
            # checked at the element it names, a malformed record included
            if verify_opening(int.from_bytes(blob[:8], "little"), bytes(blob), key, dg):
                collisions.append(("proof", trial, bytes(blob).hex()))
        else:
            blob = bytearray(dg.to_bytes())
            blob[int(rng.integers(0, len(blob)))] ^= 1 << int(rng.integers(0, 8))
            try:
                mutated_digest = Digest.from_bytes(bytes(blob))
            except ValueError:
                continue
            if verify_opening(x, proof, key, mutated_digest):
                collisions.append(("digest", trial, bytes(blob).hex()))
    _report(
        2,
        len(collisions) == 0,
        f"1000 single-bit mutations, {len(collisions)} accepted (logged SHA collisions: {collisions[:3]})",
    )


# -- criterion 3: extractor consistency -----------------------------------------------


_C3_N = 16
_C3_EPS = F(1, 2)


def _c3_trial(args) -> dict:
    strategy, params, d_kind, seed = args
    d = make_dist(d_kind, _C3_N, None, seed)
    q = make_dist(("random", 1.0), _C3_N, None, derive_key(seed, "q"))
    adv = AdversarySpec(strategy, params).build(q, seed)
    cfg = VerifierConfig(_C3_N, _C3_EPS, generator=empty_generator())
    res = run_oracle_session(cfg, adv, DSampler(d), seed)
    # rebuild the adversary for key-specific extraction (scripts are
    # deterministic in (q, seed), so this replays the committed tree)
    adv2 = AdversarySpec(strategy, params).build(q, seed)
    adv2.receive_key(res.key)
    report = extract(adv2, res.key, res.digest, eta=1)
    bad = 0
    for x, pdf, cdf in res.verified_openings:
        if (
            pdf != report.distribution.pdf_grains(x)
            or cdf != report.distribution.cdf_grains(x)
        ):
            bad += 1
    return {
        "accept": res.accept,
        "openings": len(res.verified_openings),
        "inconsistent": bad,
        "collision": report.collision is not None,
    }


def test_c03_extractor_consistency():
    configs = [
        ("honest", (), ("random", 1.0)),
        ("far-commit", (), ("uniform",)),
        ("far-commit", (), ("point", 1)),
        ("inconsistent-opening", (F(1, 1000),), ("random", 1.0)),
        ("inconsistent-opening", (F(1, 100),), ("random", 1.0)),
        ("selective-refusal", ((1,),), ("random", 1.0)),
        ("selective-refusal", ((5, 6, 7),), ("random", 1.0)),
        ("far-commit", (), ("two-level",)),
    ]
    per_config = 10_000 // len(configs)
    specs = []
    for ci, (strategy, params, d_kind) in enumerate(configs):
        for i in range(per_config):
            specs.append((strategy, params, d_kind, trial_seed(103, (ci, i))))
    rows = run_trials(_c3_trial, specs, JOBS)
    sessions = len(rows)
    inconsistent = sum(r["inconsistent"] for r in rows)
    collisions = sum(r["collision"] for r in rows)
    openings = sum(r["openings"] for r in rows)
    _report(
        3,
        inconsistent == 0 and collisions == 0 and sessions >= 10_000 - len(configs),
        f"{sessions} adversary sessions, {openings} accepted openings, "
        f"{inconsistent} inconsistent with extraction, {collisions} collisions",
    )


# -- criterion 4: identity tester calibration ------------------------------------------


def test_c04_identity_tester_calibration():
    started = time.time()
    n, eps, grains, trials = 1000, F(1, 4), 10 * (1 << 17), 200
    eq_specs = [
        IdentityTrialSpec(n, eps, ("two-level",), ("two-level",), trial_seed(104, ("eq", i)), grains)
        for i in range(trials)
    ]
    far_specs = [
        IdentityTrialSpec(
            n, eps, ("shift", ("two-level",), "3/10"), ("two-level",),
            trial_seed(104, ("far", i)), grains,
        )
        for i in range(trials)
    ]
    eq_rows = run_trials(identity_trial, eq_specs, JOBS)
    far_rows = run_trials(identity_trial, far_specs, JOBS)
    accepts = sum(r["accept"] for r in eq_rows)
    rejects = sum(not r["accept"] for r in far_rows)
    budget = identity_d_budget(n, eps)
    within = all(r["d_samples"] <= budget for r in eq_rows + far_rows)
    elapsed = time.time() - started
    _report(
        4,
        accepts >= 180 and rejects >= 180 and within and elapsed < 300,
        f"accept {accepts}/200 (D=Q), reject {rejects}/200 (TV=0.3), "
        f"budget {budget} respected={within}, {elapsed:.0f}s",
    )


# -- criterion 5: exact reduction checks -------------------------------------------------


def test_c05_exact_reduction_checks():
    started = time.time()
    # (a) mixing halves every coordinate difference; theta stays in [2/3, 1].
    # Mixing and granularization act coordinate-wise, so exhausting all
    # (N, G_d, G_q, count_d, count_q) combinations covers every distribution
    # pair with N <= 6 and denominators up to 24.
    mix_checked = theta_checked = 0
    mix_ok = True
    for n in range(1, 7):
        m = 6 * n
        for g_d in range(1, 25):
            for c_d in range(g_d + 1):
                p_d = F(c_d, g_d)
                mix_d = p_d / 2 + F(1, 2 * n)
                for g_q in range(1, 25):
                    for c_q in range(g_q + 1):
                        p_q = F(c_q, g_q)
                        mix_q = p_q / 2 + F(1, 2 * n)
                        if 2 * abs(mix_d - mix_q) != abs(p_d - p_q):
                            mix_ok = False
                        mix_checked += 1
        for g in range(1, 25):
            for c in range(g + 1):
                q_mix = F(c, 2 * g) + F(1, 2 * n)
                slots = (q_mix * m).numerator // (q_mix * m).denominator
                theta = F(slots) / (m * q_mix)
                if not F(2, 3) <= theta <= 1:
                    mix_ok = False
                theta_checked += 1

    # (b) slot counts sum to m exactly, overflow included: exhaustive over
    # every count vector with N <= 6, G <= 24 (integer arithmetic)
    def compositions(n, g):
        if n == 1:
            yield (g,)
            return
        for c in range(g + 1):
            for rest in compositions(n - 1, g - c):
                yield (c,) + rest

    gran_checked = 0
    gran_ok = True
    for n in range(1, 7):
        m = 6 * n
        for g in range(1, 25):
            for counts in compositions(n, g):
                total = sum(3 * (n * c + g) // g for c in counts)
                if not 0 <= m - total:
                    gran_ok = False
                gran_checked += 1

    # cross-check the vectorized slot computation against the direct form
    rng = rng_from(105, "slots")
    for _ in range(200):
        n = int(rng.integers(1, 7))
        g = int(rng.integers(1, 25))
        c = int(rng.integers(0, g + 1))
        direct = ((F(c, g) / 2 + F(1, 2 * n)) * 6 * n)
        assert int(_slot_counts(np.asarray([c]), n, g)[0]) == direct.numerator // direct.denominator

    # (c) pair-level chain on full pairs for small sizes plus seeded exact
    # samples across the (5..6, <=24) range
    from vdo.bruteforce import check_pair_distance_chain

    pair_ok = True
    pair_checked = 0
    small = [
        GrainDistribution(3, g, c)
        for g in (4, 6)
        for c in _all_counts(3, g)
    ]
    for i, d in enumerate(small):
        for q in small[i:]:
            base = tv_oracle(d, q)
            mixed = sum(
                abs((d.pdf(x) / 2 + F(1, 6)) - (q.pdf(x) / 2 + F(1, 6)))
                for x in range(1, 4)
            ) / 2
            if mixed != base / 2:
                pair_ok = False
            pair_checked += 1
    for n, g_d, g_q in ((5, 24, 20), (6, 24, 24), (6, 17, 23)):
        res = check_pair_distance_chain(n, g_d, g_q, 300, seed=105)
        pair_ok = pair_ok and res["ok"]
        pair_checked += res["samples"]

    elapsed = time.time() - started
    _report(
        5,
        mix_ok and gran_ok and pair_ok and elapsed < 120,
        f"mix coords {mix_checked}, theta coords {theta_checked}, "
        f"slot sums {gran_checked}, pair checks {pair_checked}, {elapsed:.0f}s",
    )


def _all_counts(n, g):
    if n == 1:
        return [(g,)]
    out = []
    for c in range(g + 1):
        out.extend((c,) + rest for rest in _all_counts(n - 1, g - c))
    return out


# -- criterion 6: histogram accuracy -------------------------------------------------------


def test_c06_histogram_accuracy():
    started = time.time()
    n, tau, trials = 256, F(1, 5), 200
    s = histogram_sample_budget(n, tau)
    log2n = F(8)  # log2(256), exact
    floor_bound = tau * tau / log2n
    good = 0
    for t in range(trials):
        q = random_distribution(n, rng_from(106, "q", t))
        exact = exact_histogram(q, tau)
        xs = q.sample_batch(s, rng_from(106, "draws", t))
        pdfs = np.asarray(q.counts, dtype=np.int64)[xs - 1]
        est = estimate_histogram(pdfs, q.grains, bucket_grid(tau, n))
        ok = all(
            abs(p - truth) <= max(floor_bound, tau * truth)
            for p, truth in zip(est.masses, exact.masses)
        )
        good += ok
    elapsed = time.time() - started
    _report(
        6,
        good >= 190,
        f"bound held in {good}/200 trials at s={s} samples, {elapsed:.0f}s",
    )


# -- criterion 7: representation lemma -------------------------------------------------------


def test_c07_representation_lemma():
    started = time.time()
    from vdo.representation import build_representation
    from vdo.rscode import element_code

    n, grains = 4, 12
    code = element_code(n)
    d_rel = code.relative_distance
    dists = [GrainDistribution(n, grains, c) for c in _all_counts(n, grains)]
    reps = [build_representation(q, code) for q in dists]
    arrays = [r.blocks for r in reps]

    bound_ok = symbol_ok = True
    pairs = 0
    for i in range(len(dists)):
        ai = arrays[i]
        ci = np.asarray(dists[i].counts)
        for j in range(i + 1, len(dists)):
            # independent TV: same denominator, integer L1
            tv = F(int(np.abs(ci - np.asarray(dists[j].counts)).sum()), 2 * grains)
            block_diff = F(int((ai != arrays[j]).any(axis=1).sum()), grains)
            sym_diff = F(int((ai != arrays[j]).sum()), grains * code.codeword_symbols)
            if block_diff < tv:
                bound_ok = False
            if sym_diff < tv * d_rel or (tv > 0 and sym_diff < tv / 10):
                symbol_ok = False
            pairs += 1

    # query/build agreement for every block of every distribution
    query_ok = True
    for q, rep in zip(dists, reps):
        cum = np.cumsum(q.counts)
        for j in range(1, grains + 1):
            x = int(np.searchsorted(cum, j, side="left")) + 1
            if code.encode_int(x) != rep.block(j):
                query_ok = False
    elapsed = time.time() - started
    _report(
        7,
        bound_ok and symbol_ok and query_ok and elapsed < 180,
        f"{pairs} pairs: block Hamming >= TV {bound_ok}, symbol >= TV*d_rel {symbol_ok}, "
        f"query agreement {query_ok}, {elapsed:.0f}s",
    )


# -- criterion 8: label-invariant end-to-end ---------------------------------------------------


def test_c08_label_invariant_end_to_end():
    started = time.time()
    n, dc, df, trials = 1024, F(1, 20), F(9, 20), 200
    comp_specs = [
        LabelTrialSpec(
            n, dc, df, "uniformity", (), ("uniform",), ("uniform",),
            trial_seed(108, ("comp", i)),
        )
        for i in range(trials)
    ]
    comp_rows = run_trials(label_trial, comp_specs, JOBS)
    accepts = sum(r["accept"] for r in comp_rows)

    scripts = [
        ("commit-point", ("point", 1), AdversarySpec("far-commit")),
        ("honest-strategy", ("uniform",), AdversarySpec("far-commit")),
        ("inconsistent", ("uniform",), AdversarySpec("inconsistent-opening", (F(1, 500),))),
        ("refusal", ("uniform",), AdversarySpec("selective-refusal", ((1, 2),))),
    ]
    reject_counts = {}
    for name, q_spec, adv in scripts:
        specs = [
            LabelTrialSpec(
                n, dc, df, "uniformity", (), ("point", 1), q_spec,
                trial_seed(108, (name, i)), adversary=adv,
            )
            for i in range(trials)
        ]
        rows = run_trials(label_trial, specs, JOBS)
        reject_counts[name] = sum(not r["accept"] for r in rows)

    elapsed = time.time() - started
    ok = accepts >= 180 and all(v >= 180 for v in reject_counts.values())
    _report(
        8,
        ok,
        f"completeness {accepts}/200; rejects {reject_counts} (each/200), {elapsed:.0f}s",
    )


# -- criterion 9: general argument end-to-end ---------------------------------------------------


def test_c09_general_argument_end_to_end():
    started = time.time()
    n, dc, df, grains, trials = 256, F(0), F(3, 5), 81920, 200
    target = ("random", 1.0)
    results = {}
    for backend in ("full-reveal", "spot-check"):
        comp = [
            GeneralTrialSpec(
                n, dc, df, target, target, target, backend,
                trial_seed(109, (backend, "c", i)), grains,
            )
            for i in range(trials)
        ]
        far_d = ("shift", target, "3/5")
        sound = [
            GeneralTrialSpec(
                n, dc, df, target, far_d, far_d, backend,
                trial_seed(109, (backend, "s", i)), grains,
            )
            for i in range(trials)
        ]
        comp_rows = run_trials(general_trial, comp, JOBS)
        sound_rows = run_trials(general_trial, sound, JOBS)
        results[backend] = (
            sum(r["accept"] for r in comp_rows),
            sum(not r["accept"] for r in sound_rows),
        )

    # spot-check probe detection against the closed form over 10^4 trials
    t_dist = make_dist(target, n, grains, trial_seed(109, "det"))
    prop = make_fixed_target(t_dist)
    cfg = VerifierConfig(n, (df - dc) / 10)
    from vdo.protocol import VerifiedOracleSession
    from vdo.representation import RepresentationString, build_representation

    session = VerifiedOracleSession(cfg, HonestProver(t_dist), DSampler(t_dist), 42)
    session.establish()  # raises SessionRejected if the honest session rejects
    backend = SpotCheckBackend()
    k = backend.budget(dc, df)
    f = F(1, 100)
    rep = build_representation(t_dist)
    corrupted = rep.blocks.copy()
    corrupt_n = int(f * grains)
    idx = rng_from(109, "plant").choice(grains, size=corrupt_n, replace=False)
    corrupted[idx, -1] ^= 0xFF
    blob = RepresentationString(rep.n, rep.grains, rep.code, corrupted).to_bytes()
    det_trials = 10_000
    hits = 0
    for i in range(det_trials):
        out = backend.verify(blob, session, prop, dc, df, rng_from(109, "det", i))
        assert not out.accept
        hits += out.probe_mismatch
    expect = 1 - (1 - F(corrupt_n, grains)) ** k
    half_width = 2.576 * (float(expect) * (1 - float(expect)) / det_trials) ** 0.5
    det_ok = abs(hits / det_trials - float(expect)) <= half_width

    elapsed = time.time() - started
    ok = all(c >= 180 and s >= 180 for c, s in results.values()) and det_ok
    _report(
        9,
        ok,
        f"full-reveal c/s {results['full-reveal']}, spot-check c/s {results['spot-check']} "
        f"(each/200); detection {hits/det_trials:.4f} vs {float(expect):.4f} "
        f"(99% half-width {half_width:.4f}), {elapsed:.0f}s",
    )


# -- criterion 10: scaling ---------------------------------------------------------------------


def test_c10_scaling():
    started = time.time()
    sc = measure_scaling(trials=50, seed=110, jobs=JOBS)
    ratios = [(a, b, round(dr, 3), round(br, 3)) for a, b, dr, br in sc.n_ratios]
    elapsed = time.time() - started
    _report(
        10,
        sc.passes(),
        f"d-sample/byte ratios per 4x N: {ratios} (band [1.6, 2.8]); "
        f"eps-halving d ratio {sc.eps_ratio:.3f} (band [3, 6]), {elapsed:.0f}s",
    )


# -- criterion 11: determinism -----------------------------------------------------------------


def test_c11_determinism():
    from vdo.properties import make_uniformity

    n = 128
    d = uniform(n)

    def run_once():
        return run_label_invariant_argument(
            make_uniformity(), n, F(1, 20), F(9, 20), DSampler(d),
            HonestProver(d), seed=1111, record_payloads=True,
        )

    a, b = run_once(), run_once()
    transcripts_equal = (
        a.session.transcript.to_text() == b.session.transcript.to_text()
    )

    from vdo.cli import main

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        args = [
            "--mode", "oracle-session", "--n", "64", "--eps", "1/2",
            "--trials", "4", "--seed", "7", "--jobs", "1",
        ]
        main(args + ["--out", pa])
        main(args + ["--out", pb])
        reports_equal = open(pa, "rb").read() == open(pb, "rb").read()

    _report(
        11,
        transcripts_equal and a.accept == b.accept and reports_equal,
        f"transcripts byte-identical={transcripts_equal}, reports byte-identical={reports_equal}",
    )
