"""Acceptance gate: the eleven end criteria, at their stated tolerances.

Every criterion prints one pass/fail line (run pytest -s to see them all)
and must finish in well under ten seconds on commodity hardware.
"""

import random
import time
from fractions import Fraction

from lsopkit.lsolp import GaugeParams, gauge_transform_scaled, lsolp_from_values, multiplication_matrix
from lsopkit.lsop import lsop_via_recurrence, random_family, recurrence_from_measure
from lsopkit.oracles import (MomentTable, c_moment, even_to_op, hankel_det, kodama_residuals,
                             kodama_sops, mu_from_c, op_via_hankel, pfaffian_route,
                             shifted_hankel_det)
from lsopkit.numerics import dense_det, dense_eigs, inf_norm, spectra_distance, sym_tridiag_eigs
from lsopkit.pfaffian import SkewArray, minor_identity, pf_eliminate, pf_expand
from lsopkit.spectra import (CONVENTION_DIFFERENCE, ButterflyParams, build_butterfly,
                             build_tridiagonal, butterfly_from_params,
                             butterfly_params, butterfly_to_tridiagonal, canonical_z_list,
                             determine_diagonal_convention, eig_correspondence,
                             pencil_eigenvalues, pencil_residual, symplectic_pencil_check)
from lsopkit.verify import RunConfig, run_verification

from fraction_oracle import as_tables


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} [{'pass' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {number}: {detail}"


def _measure_orders(count: int, cap: int):
    return [(seed, (seed - 1) % cap + 1) for seed in range(1, count + 1)]


def _support(m):
    out = []
    for z in m.nodes:
        zf = float(z)
        out.extend([complex(zf), complex(1.0 / zf)])
    return sorted(out, key=lambda c: (c.real, c.imag))


def _gauge(rng, n):
    return GaugeParams(r=tuple(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0) for _ in range(n)),
                       lam=tuple(rng.uniform(-2.0, 2.0) for _ in range(n)))


def test_criterion_01_pfaffian_identity_suite():
    t0 = time.time()
    rng = random.Random(101)
    ok = True
    for trial in range(50):
        base_size = trial % 5  # base sets of sizes 0..4
        size = base_size + 6
        s = SkewArray.from_entry_fn(
            size, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        base = list(range(base_size))
        extras = list(range(base_size, base_size + 4))
        parity = "odd" if base_size % 2 else "even"
        ok = ok and minor_identity(s, base, extras, parity)[0] == 0
    for size in range(2, 9, 2):
        s = SkewArray.from_entry_fn(
            size, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        ok = ok and pf_eliminate(s) ** 2 == dense_det(s.dense())
    for size in range(0, 11, 2):
        s = SkewArray.from_entry_fn(
            size, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        ok = ok and pf_eliminate(s) == pf_expand(s)
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 10,
            f"minor identities, Pf^2 = det, route agreement all exact ({elapsed:.1f}s)")


def test_criterion_02_skew_orthonormality():
    t0 = time.time()
    worst = 0.0
    exact_ok = True
    for seed, n in _measure_orders(20, 8):
        # double mode: pairing tables within 1e-9
        gram = random_family(seed, n, "double").gram()
        for a in range(2 * n):
            for b in range(2 * n):
                expect = 0.0
                if a % 2 == 0 and b % 2 == 1 and a // 2 == b // 2:
                    expect = 1.0
                elif a % 2 == 1 and b % 2 == 0 and a // 2 == b // 2:
                    expect = -1.0
                worst = max(worst, abs(gram[a][b] - expect))
        # rational mode: exactly 0 / 1 through the scale-squared identity
        fam = random_family(seed, n, "rational")
        mr = fam.measure
        node_vals, recip_vals = as_tables(*fam.monic_values())
        rec = fam.rec
        scales = rec.scale_squares()
        for a in range(n):
            for b in range(n):
                ee = sum((recip_vals[k][2 * a] * node_vals[k][2 * b]
                          - node_vals[k][2 * a] * recip_vals[k][2 * b]) * w
                         for k, w in enumerate(mr.weights))
                oo = sum((recip_vals[k][2 * a + 1] * node_vals[k][2 * b + 1]
                          - node_vals[k][2 * a + 1] * recip_vals[k][2 * b + 1]) * w
                         for k, w in enumerate(mr.weights))
                eo = sum((recip_vals[k][2 * a] * node_vals[k][2 * b + 1]
                          - node_vals[k][2 * a] * recip_vals[k][2 * b + 1]) * w
                         for k, w in enumerate(mr.weights)) * scales[b]
                exact_ok = exact_ok and ee == 0 and oo == 0 and eo == (1 if a == b else 0)
    elapsed = time.time() - t0
    _report(2, worst <= 1e-9 and exact_ok and elapsed < 10,
            f"20 measures, N <= 8: double defect {worst:.2e} <= 1e-9, rational exact ({elapsed:.1f}s)")


def test_criterion_03_cross_route_equality():
    t0 = time.time()
    ok = True
    for seed, n in _measure_orders(6, 6):
        fv = random_family(seed, n, "rational")
        m = fv.measure
        route = pfaffian_route(MomentTable.from_measure(m, n), 2 * n)
        qs = lsop_via_recurrence(fv.rec, n)
        for k in range(2 * n + 1):
            ok = ok and route.member(k) == qs[k]
    elapsed = time.time() - t0
    _report(3, ok and elapsed < 10,
            f"moment-minor route == recurrence route coefficientwise, N <= 6 ({elapsed:.1f}s)")


def test_criterion_04_even_reduction():
    t0 = time.time()
    exact_ok = True
    for seed, n in _measure_orders(4, 6):
        m = random_family(seed, n, "rational").measure
        cs = [c_moment(m, i) for i in range(2 * n + 1)]
        qs = lsop_via_recurrence(recurrence_from_measure(m, n), n)
        for k in range(n + 1):
            exact_ok = exact_ok and even_to_op(qs[2 * k]) == op_via_hankel(cs, k)
    # folded-functional orthogonality residuals in double mode
    worst = 0.0
    for seed, n in _measure_orders(4, 4):
        m = random_family(seed, n, "double").measure
        qs = lsop_via_recurrence(recurrence_from_measure(m, n), n)
        rbars = [even_to_op(qs[2 * k]) for k in range(n + 1)]
        hs = [_folded(m, r * r) for r in rbars]
        for a in range(n + 1):
            for b in range(a):
                v = _folded(m, rbars[a] * rbars[b])
                worst = max(worst, abs(v) / max(1.0, abs(hs[a]), abs(hs[b])))
    elapsed = time.time() - t0
    _report(4, exact_ok and worst <= 1e-9 and elapsed < 10,
            f"fold == Hankel exactly; orthogonality residual {worst:.2e} <= 1e-9 ({elapsed:.1f}s)")


def _folded(m, poly_in_w):
    total = 0.0
    for z, w in zip(m.nodes, m.weights):
        zf = float(z)
        total += float(poly_in_w(zf + 1.0 / zf)) * (zf - 1.0 / zf) * float(w)
    return total


def test_criterion_05_pfaffian_hankel_identity():
    t0 = time.time()
    ok = True
    for seed, n in _measure_orders(4, 6):
        m = random_family(seed, n, "rational").measure
        cs = [c_moment(m, i) for i in range(4 * n + 1)]
        mus = mu_from_c(cs)  # the moment link
        table = MomentTable(mu={0: Fraction(0),
                                **{k: mus[k - 1] for k in range(1, len(mus) + 1)},
                                **{-k: -mus[k - 1] for k in range(1, len(mus) + 1)}},
                            c={i: cs[i] for i in range(len(cs))}, order=n)
        rec = pfaffian_route(table, 2 * n).recurrence_data()
        for k in range(n + 1):
            ok = ok and rec.tau[k] == hankel_det(cs, k)
            ok = ok and rec.sigma[k] == shifted_hankel_det(cs, k)
    elapsed = time.time() - t0
    _report(5, ok and elapsed < 10,
            f"tau = Hankel and sigma = shifted Hankel exactly, n <= 6 ({elapsed:.1f}s)")


def test_criterion_06_pencil_symplecticity_and_eigenvalues():
    t0 = time.time()
    worst_pencil = worst_transfer = worst_eigs = residual = 0.0
    for seed, n in _measure_orders(8, 8):
        fv = random_family(seed, n, "double")
        m = fv.measure
        rep = pencil_residual(fv)
        residual = max(residual, rep.recurrence.support_residual)
        pencil = rep.recurrence.pencil
        scale = max(1.0, inf_norm(pencil.u) * inf_norm(pencil.v))
        pres, tres = symplectic_pencil_check(pencil)
        worst_pencil = max(worst_pencil, pres / scale)
        worst_transfer = max(worst_transfer, tres / scale)
        worst_eigs = max(worst_eigs, spectra_distance(pencil_eigenvalues(pencil), _support(m)))
    elapsed = time.time() - t0
    ok = (residual <= 1e-10 and worst_pencil <= 1e-10 and worst_transfer <= 1e-8
          and worst_eigs <= 1e-6 and elapsed < 10)
    _report(6, ok,
            f"pencil {worst_pencil:.2e} <= 1e-10, transfer {worst_transfer:.2e} <= 1e-8, "
            f"eigenvalues {worst_eigs:.2e} <= 1e-6 ({elapsed:.1f}s)")


def test_criterion_07_tridiagonal_spectrum():
    t0 = time.time()
    worst = 0.0
    for seed, n in _measure_orders(8, 8):
        fv = random_family(seed, n, "double")
        m = fv.measure
        lam = sym_tridiag_eigs(build_tridiagonal(fv.rec))
        target = sorted(float(z) + 1.0 / float(z) for z in m.nodes)
        worst = max(worst, max(abs(a - b) for a, b in zip(lam, target)))
    elapsed = time.time() - t0
    _report(7, worst <= 1e-8 and elapsed < 10,
            f"tridiagonal eigenvalues match z + 1/z within {worst:.2e} <= 1e-8 ({elapsed:.1f}s)")


def test_criterion_08_butterfly_path():
    t0 = time.time()
    worst_spec = worst_gauge = worst_entry = 0.0
    conventions = set()
    for seed, n in ((2, 3), (5, 5), (8, 8)):
        fv = random_family(seed, n, "double")
        m = fv.measure
        rec = fv.rec
        fam = lsolp_from_values(fv)
        rng = random.Random(1000 + seed)
        reference = None
        for _ in range(20):
            g = _gauge(rng, n)
            bt = build_butterfly(rec, g)
            eigs = sorted(dense_eigs(bt), key=lambda z: (z.real, z.imag))
            worst_spec = max(worst_spec, spectra_distance(eigs, _support(m)))
            if reference is None:
                reference = eigs
            else:
                worst_gauge = max(worst_gauge, spectra_distance(eigs, reference))
        g = _gauge(rng, n)
        mult = multiplication_matrix(gauge_transform_scaled(fam, g))
        winner, residuals = determine_diagonal_convention(mult, rec, g)
        conventions.add(winner)
        worst_entry = max(worst_entry, residuals[winner])
    elapsed = time.time() - t0
    ok = (worst_spec <= 1e-7 and worst_gauge <= 1e-8 and worst_entry <= 1e-9
          and conventions == {CONVENTION_DIFFERENCE} and elapsed < 10)
    _report(8, ok,
            f"spectrum {worst_spec:.2e} <= 1e-7, gauge drift {worst_gauge:.2e} <= 1e-8, "
            f"entrywise {worst_entry:.2e} <= 1e-9, convention {conventions} ({elapsed:.1f}s)")


def test_criterion_09_butterfly_roundtrip():
    t0 = time.time()
    worst = 0.0
    for seed, n in ((3, 4), (6, 6)):
        rec = random_family(seed, n, "double").rec
        bp = butterfly_params(rec, _gauge(random.Random(seed), n))
        lams = sym_tridiag_eigs(butterfly_to_tridiagonal(bp))
        recovered = canonical_z_list(eig_correspondence(lams))
        worst = max(worst, spectra_distance(recovered, dense_eigs(butterfly_from_params(bp))))
    # synthetic case with folded eigenvalues inside (-2, 2): unit-modulus pairs
    rng = random.Random(99)
    n = 4
    bp = ButterflyParams(
        a=tuple(1.0 + 0.5 * rng.random() for _ in range(n)),
        b=tuple(0.1 * rng.random() for _ in range(n)),
        c=tuple(0.3 * (rng.random() - 0.5) for _ in range(n)),
        d=tuple(0.05 * rng.random() for _ in range(n - 1)),
    )
    lams = sym_tridiag_eigs(butterfly_to_tridiagonal(bp))
    assert all(abs(lam) < 2 for lam in lams), "synthetic case must fold inside (-2, 2)"
    pairs = eig_correspondence(lams)
    modulus_defect = max(abs(abs(z) - 1.0) for z, zbar in pairs for z in (z, zbar))
    worst = max(worst, spectra_distance(canonical_z_list(pairs),
                                        dense_eigs(butterfly_from_params(bp))))
    elapsed = time.time() - t0
    ok = worst <= 1e-7 and modulus_defect <= 1e-12 and elapsed < 10
    _report(9, ok,
            f"round trip {worst:.2e} <= 1e-7, unit-modulus defect {modulus_defect:.2e} "
            f"<= 1e-12 ({elapsed:.1f}s)")


def test_criterion_10_squared_variable_family():
    t0 = time.time()
    rng = random.Random(10)
    ok = True
    for trial in range(10):
        n = rng.randint(1, 5)
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        b = [Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(n)]
        qs = kodama_sops(a, b, n)
        ok = ok and all(res.is_zero() for res in kodama_residuals(qs, a, b))
    elapsed = time.time() - t0
    _report(10, ok and elapsed < 10,
            f"two-line recurrence holds as exact polynomial identities, 10 draws ({elapsed:.1f}s)")


def test_criterion_11_report_determinism():
    t0 = time.time()
    cfg = RunConfig(seed=13, order=4, mode="double")
    r1 = run_verification(cfg).render()
    r2 = run_verification(cfg).render()
    cfg_r = RunConfig(seed=13, order=4, mode="rational")
    r3 = run_verification(cfg_r).render()
    r4 = run_verification(cfg_r).render()
    elapsed = time.time() - t0
    ok = r1 == r2 and r3 == r4 and r1 != r3 and elapsed < 10
    _report(11, ok, f"verification reports byte-identical per configuration ({elapsed:.1f}s)")
