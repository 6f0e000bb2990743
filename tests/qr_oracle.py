"""The dense eigensolver as it stood before its zero skips: the oracle of
numerics.dense_eigs.

_hessenberg and _hqr below are the kernels as they were before
_hessenberg began to skip updates by a 0.0 multiplicand and _hqr began to
read each entry once per bulge step, copied verbatim.  oracle_eigs runs
them as dense_eigs ran them, on every entry as float(x).  dense_eigs(a)
must equal oracle_eigs(canon(a)) bit for bit, zero signs included, where
canon makes every -0.0 +0.0: a -0.0 in the working matrix is the one
entry that a skipped +-0.0 product would have changed.

Run as a script, the module checks that equality on the butterfly and the
pencil transfer matrix of every eigensolve benchmark input of seeds 1-10,
and on seeded random matrices of every size from 1 to 64:

    PYTHONPATH=src python tests/qr_oracle.py
"""

import math
import pathlib
import random
import sys
from typing import List

from lsopkit.errors import ConvergenceError
from lsopkit.numerics import _EPS, Matrix, _check_square, dense_eigs, sort_complex


def canon(a):
    """a with every entry a float and every -0.0 made +0.0."""
    return [[float(x) + 0.0 for x in row] for row in a]


def oracle_eigs(a: Matrix) -> List[complex]:
    """dense_eigs before the zero skips: every update performed."""
    if _check_square(a) == 0:
        return []
    h = [[float(x) for x in row] for row in a]
    if not all(math.isfinite(x) for row in h for x in row):
        raise ValueError("matrix entries must be finite")
    _hessenberg(h)
    return sort_complex(_hqr(h))


def outcome(f, *args) -> str:
    """repr of f(*args), or the type and message of the error it raises."""
    try:
        return repr(f(*args))
    except (ArithmeticError, ConvergenceError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _hessenberg(a: Matrix) -> None:
    """Reduce to upper Hessenberg in place by pivoted elementary similarity."""
    n = len(a)
    for m in range(1, n - 1):
        x, piv = 0.0, m
        for j in range(m, n):
            if abs(a[j][m - 1]) > abs(x):
                x = a[j][m - 1]
                piv = j
        if piv != m:
            a[piv], a[m] = a[m], a[piv]
            for row in a:
                row[piv], row[m] = row[m], row[piv]
        if x != 0.0:
            am = a[m]
            for i in range(m + 1, n):
                ai = a[i]
                y = ai[m - 1]
                if y != 0.0:
                    y /= x
                    ai[m - 1] = 0.0
                    for j in range(m, n):
                        ai[j] -= y * am[j]
                    for row in a:
                        row[m] += y * row[i]
    for i in range(2, n):
        for j in range(i - 1):
            a[i][j] = 0.0


def _hqr(a: Matrix) -> List[complex]:
    """Eigenvalues of an upper Hessenberg matrix (Francis double shift).

    Exceptional shifts after every 10 stalled sweeps on one eigenvalue;
    failure after 30 * max(10, n) sweeps over the whole matrix, the
    iteration budget of LAPACK's dlahqr.
    """
    n = len(a)
    budget = 30 * max(10, n)
    sweeps = 0
    anorm = 0.0
    for i in range(n):
        for j in range(max(i - 1, 0), n):
            anorm += abs(a[i][j])
    if anorm == 0.0:
        return [0j] * n
    eigs: List[complex] = []
    nn = n - 1
    t = 0.0
    while nn >= 0:
        its = 0
        while True:
            l = nn
            while l >= 1:
                s = abs(a[l - 1][l - 1]) + abs(a[l][l])
                if s == 0.0:
                    s = anorm
                if abs(a[l][l - 1]) <= _EPS * s:
                    a[l][l - 1] = 0.0
                    break
                l -= 1
            x = a[nn][nn]
            if l == nn:
                eigs.append(complex(x + t, 0.0))
                nn -= 1
                break
            y = a[nn - 1][nn - 1]
            w = a[nn][nn - 1] * a[nn - 1][nn]
            if l == nn - 1:
                p = 0.5 * (y - x)
                q = p * p + w
                z = math.sqrt(abs(q))
                x += t
                if q >= 0.0:
                    z = p + math.copysign(z, p)
                    eigs.append(complex(x + z, 0.0))
                    eigs.append(complex(x + z if z == 0.0 else x - w / z, 0.0))
                else:
                    eigs.append(complex(x + p, z))
                    eigs.append(complex(x + p, -z))
                nn -= 2
                break
            if sweeps == budget:
                raise ConvergenceError(f"QR iteration failed to converge in {budget} sweeps")
            if its and its % 10 == 0:
                t += x
                for i in range(nn + 1):
                    a[i][i] -= x
                s = abs(a[nn][nn - 1]) + abs(a[nn - 1][nn - 2])
                y = x = 0.75 * s
                w = -0.4375 * s * s
            its += 1
            sweeps += 1
            m = nn - 2
            while m >= l:
                z = a[m][m]
                r = x - z
                s = y - z
                p = (r * s - w) / a[m + 1][m] + a[m][m + 1]
                q = a[m + 1][m + 1] - z - r - s
                r = a[m + 2][m + 1]
                s = abs(p) + abs(q) + abs(r)
                p /= s
                q /= s
                r /= s
                if m == l:
                    break
                u = abs(a[m][m - 1]) * (abs(q) + abs(r))
                v = abs(p) * (abs(a[m - 1][m - 1]) + abs(z) + abs(a[m + 1][m + 1]))
                if u <= _EPS * v:
                    break
                m -= 1
            for i in range(m + 2, nn + 1):
                a[i][i - 2] = 0.0
                if i != m + 2:
                    a[i][i - 3] = 0.0
            for k in range(m, nn):
                if k != m:
                    p = a[k][k - 1]
                    q = a[k + 1][k - 1]
                    r = a[k + 2][k - 1] if k != nn - 1 else 0.0
                    x = abs(p) + abs(q) + abs(r)
                    if x != 0.0:
                        p /= x
                        q /= x
                        r /= x
                s = math.copysign(math.sqrt(p * p + q * q + r * r), p)
                if s == 0.0:
                    continue
                if k == m:
                    if l != m:
                        a[k][k - 1] = -a[k][k - 1]
                else:
                    a[k][k - 1] = -s * x
                p += s
                x = p / s
                y = q / s
                z = r / s
                q /= p
                r /= p
                # rows k..k+2, then columns k..k+2 of rows l..min(nn, k+3);
                # the last step (k = nn - 1) touches two rows and columns
                r0, r1 = a[k], a[k + 1]
                if k == nn - 1:
                    for j in range(k, nn + 1):
                        p = r0[j] + q * r1[j]
                        r1[j] -= p * y
                        r0[j] -= p * x
                    for row in a[l:nn + 1]:
                        p = x * row[k] + y * row[k + 1]
                        row[k + 1] -= p * q
                        row[k] -= p
                else:
                    r2 = a[k + 2]
                    for j in range(k, nn + 1):
                        p = r0[j] + q * r1[j] + r * r2[j]
                        r2[j] -= p * z
                        r1[j] -= p * y
                        r0[j] -= p * x
                    for row in a[l:min(nn, k + 3) + 1]:
                        p = x * row[k] + y * row[k + 1] + z * row[k + 2]
                        row[k + 2] -= p * r
                        row[k + 1] -= p * q
                        row[k] -= p
    return eigs


def signed_zero_matrix(rng: random.Random, n: int) -> Matrix:
    """n x n entries drawn from +0.0, -0.0, small ints and Gaussians."""
    pick = (lambda: 0.0, lambda: -0.0, lambda: float(rng.randint(-3, 3)), lambda: rng.gauss(0.0, 1.0))
    return [[rng.choice(pick)() for _ in range(n)] for _ in range(n)]


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
    from test_numerics import _eigensolve_matrices

    from perfbench.inputs import EIGEN_ORDERS

    cases = [(f"eigensolve seed {seed}, N = {n}", a)
             for seed in range(1, 11) for n in EIGEN_ORDERS for a in _eigensolve_matrices(n, seed)]
    rng = random.Random("qr-oracle")
    cases += [(f"random {n} x {n}", signed_zero_matrix(rng, n)) for n in range(1, 65) for _ in range(2)]
    cases += [(f"gaussian {n} x {n}", [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(n)])
              for n in range(1, 65)]
    failed = [name for name, a in cases if outcome(dense_eigs, a) != outcome(oracle_eigs, canon(a))]
    for name in failed:
        print(f"{name}: dense_eigs differs from the oracle")
    print(f"{len(cases) - len(failed)}/{len(cases)} matrices: dense_eigs equals the oracle bit for bit")
    sys.exit(1 if failed else 0)
