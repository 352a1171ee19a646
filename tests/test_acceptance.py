"""End-to-end acceptance gate.

Nine numbered criteria, each emitting one PASS/FAIL line.  Seeds are
fixed so every run exercises the same sample.  Tolerances are asserted
exactly as stated; a criterion the program does not meet is left to
fail rather than loosened (the failure lines carry the measured
numbers).
"""

from __future__ import annotations

import time

import numpy as np

import phasekit as pk
from phasekit import simple_systems

from mp_reference import mp_moments, mp_preimage


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _draw_real_distinct(rng, model, n_rates=5):
    """Log-uniform rate draw in [1e-2, 1e2] with a real distinct
    spectrum."""
    while True:
        k = 10.0 ** rng.uniform(-2.0, 2.0, size=n_rates)
        gen = pk.build_generator(model, k)
        eig = np.linalg.eigvals(gen.Qtilde)
        if np.any(eig.imag != 0.0):
            continue
        if np.min(np.diff(np.sort(eig.real))) <= 0.0:
            continue
        return k, gen


def _discriminant(m):
    L1, _, L3 = m.L
    S1, S2 = m.S
    return (L1 * S1) ** 2 - 2.0 * L1 * S1 * S2 - 4.0 * L3 * S1 + S2 ** 2


def _rel_err(sols, ref):
    return min(np.max(np.abs(np.asarray(s.rates) - ref) / ref) for s in sols)


def test_criterion_1_round_trip_identifiability():
    """Generic inversion recovers the rates of 4000 forward draws.

    A draw passes when its best solution is within 1e-8 of the true
    rates k.  The moments handed to the solver are float64, and for a few
    ill-conditioned draws the exact preimage of those rounded moments
    lies farther than 1e-8 from k, where no method can do better.  Only
    when a draw misses k, it passes if its best solution is within 1e-8
    of that preimage, computed here independently of the library.  So
    that an inaccurate forward map cannot hide behind the preimage,
    every draw also checks ``moments_from_generator`` against 50-digit
    moments to 8 ulps per component.  The time budget covers the
    library calls only.
    """
    rng = np.random.default_rng(101)
    eps = np.finfo(float).eps
    elapsed = 0.0
    worst = 0.0
    worst_fwd = 0.0
    worst_pre = 0.0
    n_pre = 0
    n_over = 0
    n_miss = 0
    n_count_bad = 0
    n_fwd_bad = 0
    for tag in ("M2", "M4", "M8", "M9"):
        model = pk.model_from_string(tag)
        for _ in range(1000):
            k, gen = _draw_real_distinct(rng, model)
            t0 = time.perf_counter()
            m = pk.moments_from_generator(gen)
            try:
                sols = pk.invert_generic(model, m)
            except pk.PhasekitError:
                sols = []
            elapsed += time.perf_counter() - t0
            exact = np.array([float(x) for x in mp_moments(model, k)])
            fwd = float(np.max(np.abs(m.as_vector() - exact)
                               / np.abs(exact))) / eps
            worst_fwd = max(worst_fwd, fwd)
            if fwd > 8.0:
                n_fwd_bad += 1
            if not sols:
                n_miss += 1
                continue
            best = _rel_err(sols, k)
            if best > 1e-8:
                pre = mp_preimage(model, k, m)
                n_pre += 1
                worst_pre = max(worst_pre, float(np.max(np.abs(pre - k) / k)))
                best = _rel_err(sols, pre)
            worst = max(worst, best)
            if best > 1e-8:
                n_over += 1
            if tag == "M2":
                if len(sols) != 1:
                    n_count_bad += 1
            elif _discriminant(m) > 0.0 and len(sols) != 2:
                n_count_bad += 1
    ok = (n_over == 0 and n_miss == 0 and n_count_bad == 0
          and n_fwd_bad == 0 and elapsed < 30.0)
    _report(1, ok,
            f"4000 draws, worst rel err {worst:.2e}, {n_over} over 1e-8, "
            f"{n_miss} misses, {n_count_bad} bad counts, {n_pre} against "
            f"the float64 preimage (worst |preimage - k|/k {worst_pre:.1e}), "
            f"forward map worst {worst_fwd:.1f} ulps ({n_fwd_bad} over 8), "
            f"{elapsed:.1f}s in the library")


def test_criterion_2_unbranched_chain_round_trip():
    rng = np.random.default_rng(102)
    t0 = time.time()
    worst = 0.0
    n_over = 0
    n_miss = 0
    for N in range(1, 9):
        model = pk.unbranched_chain(N)
        for _ in range(200):
            while True:
                k = 10.0 ** rng.uniform(-2.0, 2.0, size=2 * N - 1)
                try:
                    p = pk.phase_type_params(pk.build_generator(model, k))
                    break
                except pk.PhasekitError:
                    continue
            try:
                sol = pk.invert_unbranched(N, p)
            except pk.PhasekitError:
                n_miss += 1
                continue
            err = np.max(np.abs(np.asarray(sol.rates) - k) / k)
            worst = max(worst, err)
            if err > 1e-6:
                n_over += 1
    elapsed = time.time() - t0
    ok = n_over == 0 and n_miss == 0 and elapsed < 30.0
    _report(2, ok,
            f"N=1..8 x200 draws, worst rel err {worst:.2e}, "
            f"{n_over} over 1e-6, {n_miss} misses, {elapsed:.1f}s")


def test_criterion_3_m3_family():
    rng = np.random.default_rng(103)
    model = pk.model_from_string("M3")
    worst_g = 0.0
    min_members = 99
    for _ in range(100):
        _, gen = _draw_real_distinct(rng, model)
        m = pk.moments_from_generator(gen)
        L1, L2, L3 = m.L
        S1, S2 = m.S
        G = L1 * S1 * S2 - L2 * S1 ** 2 + L3 * S1 - S2 ** 2
        scale = (abs(L1 * S1 * S2) + abs(L2) * S1 ** 2
                 + abs(L3 * S1) + S2 ** 2)
        worst_g = max(worst_g, abs(G) / scale)
        sols = pk.invert_generic(model, m)
        target = m.as_vector()
        band = 1e-9 * (1.0 + np.max(np.abs(target)))
        members = set()
        for s in sols:
            m2 = pk.moments_from_generator(
                pk.build_generator(model, s.rates))
            if np.max(np.abs(m2.as_vector() - target)) <= band:
                members.add(tuple(np.round(np.asarray(s.rates), 12)))
        min_members = min(min_members, len(members))
    ok = worst_g <= 1e-9 and min_members >= 3
    _report(3, ok,
            f"100 instances, worst |G|/scale {worst_g:.2e}, "
            f"min family members {min_members}")


def test_criterion_4_discrimination_experiment():
    t0 = time.time()
    rep = pk.discrimination_experiment(pk.ExperimentConfig())
    elapsed = time.time() - t0
    retained = rep.n_retained / rep.config.n_samples
    zp, zt1, zt2 = (rep.zero_fraction_p, rep.zero_fraction_t1,
                    rep.zero_fraction_t2)
    ok = (abs(retained - 0.614) <= 0.02
          and abs(zp - 0.11) <= 0.03
          and abs(zt1 - 0.16) <= 0.03
          and abs(zt2 - 0.16) <= 0.03
          and elapsed < 300.0)
    _report(4, ok,
            f"retained {retained:.5f} (want 0.614+-0.02), zero fractions "
            f"({zp:.3f}, {zt1:.3f}, {zt2:.3f}) "
            f"(want 0.11/0.16/0.16 +-0.03), {elapsed:.1f}s")


def test_criterion_5_shared_invariants():
    rng = np.random.default_rng(22)
    tags = ("M2", "M4", "M8", "M9")
    worst = {"k5": 0.0, "T3": 0.0, "p3": 0.0}
    n_multi = 0
    n_over = 0
    for i in range(500):
        model = pk.model_from_string(tags[i % 4])
        while True:
            k = 10.0 ** rng.uniform(-2.0, 2.0, size=5)
            try:
                p = pk.phase_type_params(pk.build_generator(model, k))
                break
            except pk.PhasekitError:
                continue
        rep = pk.enumerate_variants(p)
        if rep.n_valid < 2:
            continue
        n_multi += 1
        for key in ("k5", "T3", "p3"):
            spread = rep.constraint_spreads[key]
            worst[key] = max(worst[key], spread)
            if spread > 1e-8:
                n_over += 1
    ok = n_over == 0 and n_multi >= 400
    _report(5, ok,
            f"{n_multi}/500 inputs with >=2 variants, worst spreads "
            f"k5 {worst['k5']:.1e} T3 {worst['T3']:.1e} "
            f"p3 {worst['p3']:.1e}, {n_over} over 1e-8")


def test_criterion_6_model_mappings():
    rng = np.random.default_rng(31)
    m9 = pk.model_from_string("M9")
    worst_m = 0.0
    worst_t = 0.0
    for _ in range(500):
        while True:
            k = 10.0 ** rng.uniform(-2.0, 2.0, size=5)
            if abs(k[0] - k[1]) < 1e-6 * max(k[0], k[1]):
                continue
            try:
                m_src = pk.moments_from_generator(pk.build_generator(m9, k))
                break
            except pk.PhasekitError:
                continue
        if k[1] > k[0]:
            img_model = pk.model_from_string("M8")
            img = pk.map_m9_to_m8(k)
        else:
            img_model = pk.model_from_string("M4")
            img = pk.map_m9_to_m4(k)
        m_img = pk.moments_from_generator(pk.build_generator(img_model, img))
        src = m_src.as_vector()
        band = 1.0 + np.max(np.abs(src))
        worst_m = max(worst_m,
                      float(np.max(np.abs(m_img.as_vector() - src)) / band))
        t_src = np.array(pk.markers(m9, k).T)
        t_img = np.array(pk.markers(img_model, img).T)
        worst_t = max(worst_t,
                      float(np.max(np.abs(t_img - t_src) / np.abs(t_src))))
    ok = worst_m <= 1e-9 and worst_t <= 1e-9
    _report(6, ok,
            f"500 mapped instances, worst moment mismatch {worst_m:.1e}, "
            f"worst lifetime mismatch {worst_t:.1e}")


def test_criterion_7_thomas_disjointness():
    rng = np.random.default_rng(12)
    tags = ("M2", "M3", "M4", "M8", "M9")
    loaded = {t: pk.load_systems(pk.model_from_string(t)) for t in tags}
    n_bad = 0
    for i in range(500):
        tag = tags[i % 5]
        model = pk.model_from_string(tag)
        while True:
            k = 10.0 ** rng.uniform(-2.0, 2.0, size=5)
            try:
                m = pk.moments_from_generator(pk.build_generator(model, k))
                break
            except pk.PhasekitError:
                continue
        values = np.array([*k, *m.as_vector()])
        hits = sum(
            1 for t2 in tags for sys_ in loaded[t2].systems
            if all(simple_systems._relation_holds(rel, values, 1e-9)
                   for rel in sys_.relations))
        if hits != 1:
            n_bad += 1
    ok = n_bad == 0
    _report(7, ok, f"500 forward points, {n_bad} accepted by != 1 system")


def test_criterion_8_simulation_fidelity():
    rng = np.random.default_rng(11)
    tags = ("M2", "M4", "M8", "M9")
    n_events = 100_000
    dkw = np.sqrt(np.log(2.0 / 0.01) / (2.0 * n_events))
    n_violations = 0
    worst_ks = 0.0
    worst_mean = 0.0
    for s in range(100):
        model = pk.model_from_string(tags[s % 4])
        while True:
            k = 10.0 ** rng.uniform(-1.0, 1.0, size=5)
            try:
                gen = pk.build_generator(model, k)
                p = pk.phase_type_params(gen)
                break
            except pk.PhasekitError:
                continue
        trace = pk.simulate_events(gen, n_events, seed=110000 + s)
        ks = pk.ks_statistic(trace, p)
        worst_ks = max(worst_ks, ks)
        if ks > dkw:
            n_violations += 1
        mk = pk.markers(model, k)
        inv_mean = 1.0 / (mk.p[2] * k[4])
        worst_mean = max(worst_mean,
                         abs(pk.mean_time(p) - inv_mean) / inv_mean)
    ok = n_violations <= 1 and worst_mean <= 1e-9
    _report(8, ok,
            f"100 simulations, worst ks {worst_ks:.5f} "
            f"(bound {dkw:.5f}), {n_violations} violations, "
            f"worst mean-identity rel err {worst_mean:.1e}")


def test_criterion_9_end_to_end_inference():
    truth = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    model = pk.model_from_string("M9")
    gen = pk.build_generator(model, truth)
    trace = pk.simulate_events(gen, 1_000_000, seed=42)
    fit = pk.fit_multiexp(trace, gen.N, pk.FitConfig())
    rep = pk.enumerate_variants(fit.params)
    best = None
    for inst in rep.instances:
        if not inst.valid or str(inst.solution.model) != str(model):
            continue
        rel = float(np.max(np.abs(np.asarray(inst.solution.rates) - truth)
                           / truth))
        if best is None or rel < best:
            best = rel
    ok = best is not None and best <= 0.15
    _report(9, ok,
            f"n=1e6 simulate->fit->invert, best M9 variant rel err "
            f"{'none' if best is None else f'{best:.3f}'} (want <= 0.15)")
