"""Acceptance suite.

One test per acceptance criterion, each printing a pass/fail line with its
runtime (run ``pytest tests/test_acceptance.py -v -s`` to see them).  Every
tolerance is pinned here; nothing is deferred to later calibration.

 1. closed-form depth == root of the break-even gain (50 random models)
 2. reference spread solve and tick quantities
 3. Monte Carlo zero-profit at the equilibrium book (10^6 events)
 4. exact reductions (f = 1, theta = 0, degenerate multi-source)
 5. monotonicity grid (depth, spreads, toxic ordering)
 6. multi-source finiteness at f = 0
 7. signature recovery on a labeled 10^5-event log
 8. noise-drift constant against its Markov-chain Monte Carlo estimate
"""

import math
import time

import numpy as np
import pytest

from lobeq.equilibrium import (
    UNBOUNDED,
    BookShape,
    JumpSource,
    ModelParams,
    MultiSourceParams,
    book_curves,
    gain_imm,
    shape_continuous,
    shape_multi,
    spread,
    theta_bar,
)
from lobeq.laws import Exponential, LaplaceVolume, NormalVolume, Pareto
from lobeq.mbo import parse, reconstruct
from lobeq.signature import QuoteSeries, build_trade_records
from lobeq.simulator import SimConfig, run

REF = ModelParams(r=0.9, f=0.9, jump=Pareto(3.0, 0.005), volume=NormalVolume(10.0),
                  tick=0.01, offset_d=0.0)


def report(number, label, t0, detail=""):
    print(f"\nACCEPTANCE {number} [{label}]: PASS ({time.time() - t0:.2f}s) {detail}")


# -- 1 ----------------------------------------------------------------------


def random_params(rng):
    jump = (Pareto(rng.uniform(2.2, 4.0), rng.uniform(0.002, 0.05))
            if rng.random() < 0.5 else Exponential(rng.uniform(20.0, 200.0)))
    volume = (NormalVolume(rng.uniform(2.0, 20.0))
              if rng.random() < 0.5 else LaplaceVolume(rng.uniform(2.0, 15.0)))
    return ModelParams(r=rng.uniform(0.05, 0.95), f=rng.uniform(0.05, 1.0),
                       jump=jump, volume=volume)


def depth_by_gain_root(p, x):
    lo, hi = 0.0, 1.0
    if gain_imm(p, x, lo) < 0.0:
        return 0.0
    while gain_imm(p, x, hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gain_imm(p, x, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_1_closed_form_matches_gain_root():
    t0 = time.time()
    rng = np.random.default_rng(20240501)
    checked = 0
    for _ in range(50):
        p = random_params(rng)
        phi = spread(p).phi
        xs = phi * np.geomspace(1.05, 6.0, 20)
        book = shape_continuous(p, xs)
        for x, closed in zip(xs, book.informed):
            root = depth_by_gain_root(p, x)
            assert root == pytest.approx(closed, rel=1e-7), (p, x)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(1, "closed-form vs gain-root depth", t0, f"{checked} points, 50 models")


# -- 2 ----------------------------------------------------------------------


def test_2_reference_spread_and_tick_quantities():
    t0 = time.time()
    sol = spread(REF)
    rhs = 1.0 + (1.0 / (2.0 * REF.f)) * (1.0 / REF.r - 1.0)
    assert round(rhs, 7) == 1.0617284
    residual = abs(REF.jump.emax_ratio(sol.phi) - rhs) / rhs
    assert residual <= 1e-12
    assert sol.k_d == 3
    assert sol.spread_tick == pytest.approx(0.04, abs=1e-15)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, "spread solver", t0,
           f"phi={sol.phi:.6f} residual={residual:.2e} k_d={sol.k_d}")


# -- 3 ----------------------------------------------------------------------


def test_3_monte_carlo_zero_profit():
    t0 = time.time()
    n_events = 10**6
    res = run(SimConfig(params=REF, n_events=n_events, seed=7, n_levels=8))
    eff = np.diff(res.book.informed, prepend=0.0)
    noise = np.diff(res.book.noise, prepend=0.0)
    n_checked = 0
    for p in res.pnl:
        own_level = eff[p.level - 1] if p.maker == "IMM" else noise[p.level - 1]
        if own_level > 0.0:
            assert p.n_fills > 1, (p.maker, p.level)
            assert abs(p.mean_gain) <= 3.0 * p.std_err, (p.maker, p.level, p.mean_gain, p.std_err)
            n_checked += 1

    # one level tighter: the squeezed level must lose money decisively
    book = res.book
    informed = np.concatenate([book.informed[1:], [book.informed[-1]]])
    noise_cum = np.concatenate([book.noise[1:], [book.noise[-1]]])
    tight = BookShape(grid=book.grid, informed=informed, noise=noise_cum)
    res_t = run(SimConfig(params=REF, n_events=n_events, seed=7, book_mode=tight))
    squeezed = next(p for p in res_t.pnl if p.maker == "IMM" and p.level == 2)
    assert squeezed.mean_gain < -3.0 * squeezed.std_err

    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(3, "Monte Carlo zero-profit", t0,
           f"{n_checked} maker-levels at 3 sigma; tightened level "
           f"t={squeezed.mean_gain / squeezed.std_err:.1f}")


# -- 4 ----------------------------------------------------------------------


def test_4_reductions():
    t0 = time.time()
    grid = np.linspace(0.006, 0.15, 30)
    rs = [0.1, 0.3, 0.5, 0.7, 0.9]
    laws = [Pareto(3.0, 0.005), Exponential(80.0)]
    for jump in laws:
        for r in rs:
            # f = 1: the informed book collapses onto the noise book
            p1 = ModelParams(r=r, f=1.0, jump=jump, volume=NormalVolume(10.0))
            book = shape_continuous(p1, grid)
            assert np.array_equal(book.informed, book.noise)
            sol = spread(p1)
            assert sol.phi == sol.mu

            # theta = 0: the toxic variant is the baseline, bit for bit
            for f in (0.2, 0.6, 1.0):
                p = ModelParams(r=r, f=f, jump=jump, volume=NormalVolume(10.0))
                pt = ModelParams(r=r, f=f, jump=jump, volume=NormalVolume(10.0),
                                 theta=0.0, rho=0.5)
                assert np.array_equal(shape_continuous(pt, grid).informed,
                                      shape_continuous(p, grid).informed)
                assert spread(pt).phi_theta == spread(p).phi

            # single-source and dead-source multi configurations degenerate
            for f in (0.2, 0.6):
                p = ModelParams(r=r, f=f, jump=jump, volume=NormalVolume(10.0))
                single = shape_continuous(p, grid).informed
                mp1 = MultiSourceParams(sources=(JumpSource(r, f, jump),),
                                        volume=NormalVolume(10.0))
                mp2 = MultiSourceParams(sources=(JumpSource(r, f, jump),
                                                 JumpSource(0.0, f, Exponential(55.0))),
                                        volume=NormalVolume(10.0))
                for mp in (mp1, mp2):
                    multi = shape_multi(mp, grid).informed
                    both = np.isfinite(single) & np.isfinite(multi)
                    # the two code paths agree to machine precision in the
                    # break-even argument; inverting the volume CDF divides
                    # that by the tail density, hence the looser depth rtol
                    assert np.allclose(multi[both], single[both], rtol=1e-9, atol=0)
                    cdf = NormalVolume(10.0).cdf
                    assert np.allclose(cdf(multi[both]), cdf(single[both]),
                                       rtol=0, atol=1e-13)
                    assert np.array_equal(np.isfinite(single), np.isfinite(multi))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(4, "exact reductions", t0, f"{len(laws) * len(rs)} configurations")


# -- 5 ----------------------------------------------------------------------


def test_5_monotonicity_grid():
    t0 = time.time()
    rs = np.linspace(0.1, 0.9, 10)
    fs = np.linspace(0.1, 1.0, 10)
    thetas = [0.0, 0.002, 0.005]
    probes = np.array([0.03, 0.06, 0.12])
    jump, volume = Pareto(3.0, 0.005), NormalVolume(10.0)
    violations = 0
    for theta in thetas:
        depth = np.empty((len(rs), len(fs), len(probes)))
        for i, r in enumerate(rs):
            for j, f in enumerate(fs):
                p = ModelParams(r=float(r), f=float(f), jump=jump, volume=volume,
                                theta=theta, rho=0.3)
                informed, _ = book_curves(p, probes)
                depth[i, j] = informed
                if np.any(np.diff(informed) < -1e-12):
                    violations += 1
                sol = spread(p)
                tb = theta_bar(p)
                if theta > 0.0 and not (sol.phi_theta > tb and sol.phi_theta >= sol.phi):
                    violations += 1
        if np.any(np.diff(depth, axis=0) > 1e-9) or np.any(np.diff(depth, axis=1) > 1e-9):
            violations += 1

    phi = np.empty((len(rs), len(fs)))
    for i, r in enumerate(rs):
        for j, f in enumerate(fs):
            phi[i, j] = spread(
                ModelParams(r=float(r), f=float(f), jump=jump, volume=volume)).phi
    if np.any(np.diff(phi, axis=0) < -1e-12) or np.any(np.diff(phi, axis=1) < -1e-12):
        violations += 1

    assert violations == 0
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(5, "monotonicity suite", t0, "10x10 grid x 3 drift levels, 0 violations")


# -- 6 ----------------------------------------------------------------------


def test_6_multi_source_finiteness_at_f0():
    t0 = time.time()
    probes = np.linspace(0.01, 0.3, 40)
    jump = Pareto(3.0, 0.005)
    competing = MultiSourceParams(
        sources=(JumpSource(0.2, 0.0, jump), JumpSource(0.2, 0.0, jump)),
        volume=NormalVolume(10.0),
    )
    assert np.all(np.isfinite(shape_multi(competing, probes).informed))

    lone = ModelParams(r=0.4, f=0.0, jump=jump, volume=NormalVolume(10.0))
    assert np.all(shape_continuous(lone, probes).informed == UNBOUNDED)
    report(6, "competition keeps depth finite at f=0", t0)


# -- 7 ----------------------------------------------------------------------


def signature_and_bootstrap_se(trades, k_ns, quotes, kind, rng, n_boot=200):
    qty = trades.qty.astype(float)
    ref = quotes.reference(trades.t_ns + k_ns, kind, qty)
    num = qty * (ref - trades.price)
    den = np.abs(qty)
    st = num.sum() / den.sum()
    n = len(trades)
    draws = rng.integers(0, n, size=(n_boot, n))
    boot = num[draws].sum(axis=1) / den[draws].sum(axis=1)
    return st, float(boot.std(ddof=1))


def test_7_signature_recovery_on_labeled_log(tmp_path):
    t0 = time.time()
    params = ModelParams(r=0.15, f=0.9, jump=Pareto(2.5, 0.01),
                         volume=NormalVolume(10.0), tick=0.01, offset_d=0.0,
                         lambda_i=0.15, lambda_u=0.85)
    run(SimConfig(params=params, n_events=10**5, seed=31,
                  n_levels=8, volume_scale=1000), log=tmp_path / "mbo.csv")
    replay = reconstruct(parse(tmp_path / "mbo.csv"))
    quotes = QuoteSeries.from_replay(replay)
    aggressive, _ = build_trade_records(replay)
    it = aggressive.take(aggressive.participant_label == "IT")
    nt = aggressive.take(aggressive.participant_label == "NT")
    assert len(it) > 1000 and len(nt) > 1000

    # crossing the spread: against the touched quote the immediate
    # aggressive signature cannot be positive
    qty = aggressive.qty.astype(float)
    touched = quotes.reference(aggressive.t_ns, "touched", qty)
    st0 = (qty * (touched - aggressive.price)).sum() / np.abs(qty).sum()
    assert st0 <= 0.0

    # beyond the mean inter-jump time (1/lambda_i = 6.7s) the labeled
    # cohorts separate: informed positive, noise negative, 3 sigma apart
    rng = np.random.default_rng(99)
    seps = []
    for k_s in (10.0, 30.0):
        k_ns = int(k_s * 1e9)
        st_it, se_it = signature_and_bootstrap_se(it, k_ns, quotes, "micro", rng)
        st_nt, se_nt = signature_and_bootstrap_se(nt, k_ns, quotes, "micro", rng)
        gap_se = math.hypot(se_it, se_nt)
        assert st_it > 0.0, (k_s, st_it)
        assert st_nt < 0.0, (k_s, st_nt)
        assert st_it - st_nt > 3.0 * gap_se
        seps.append((st_it - st_nt) / gap_se)

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(7, "signature recovery", t0,
           f"IT/NT separation {min(seps):.1f} sigma min, ST(0)={st0:.4f}")


# -- 8 ----------------------------------------------------------------------


def test_8_noise_drift_constant_vs_chain_mc():
    t0 = time.time()
    theta = 0.01
    rng = np.random.default_rng(12)
    for rho in (-0.5, 0.0, 0.5, 0.9):
        gamma = 0.5 * (1.0 + rho)
        steps = np.where(rng.random(10**7) < gamma, 1, -1).astype(np.int8)
        x = np.multiply.accumulate(steps)
        prev = np.concatenate(([np.int8(1)], x[:-1]))
        drift = theta * (x - rho * prev.astype(float))
        sample = drift[x == 1]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        expected = theta_bar(ModelParams(r=0.5, f=0.5, jump=Pareto(3.0, 0.005),
                                         volume=NormalVolume(10.0),
                                         theta=theta, rho=rho))
        # rho = 0 has zero variance: allow float-summation noise
        tol = max(3.0 * se, 1e-12)
        assert abs(sample.mean() - expected) <= tol, (rho, sample.mean(), expected)
    report(8, "noise-drift constant vs chain MC", t0, "rho in {-0.5, 0, 0.5, 0.9}")
