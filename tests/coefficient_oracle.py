"""The orthonormal family from its coefficient polynomials: a test oracle.

lsop.evaluate_family gives the orthonormal family as value tables on the
support, and lsolp.lsolp_from_values builds the alternating-basis family
from those tables.  The forms here take the long way, through the
coefficients of lsop_via_recurrence's members, so that tests can compare
the two:

* orthonormalize scales a coefficient family by sqrt(tau_n / tau_{n+1});
* lsolp_from_lsop builds the alternating-basis family from the scaled
  polynomials and evaluates it on the support.
"""

import math

from lsopkit.lsolp import require_orthonormal
from lsopkit.oracles import _family_from_polys


def orthonormalize(qs, rec):
    """Scaled family qt_2n = sqrt(tau_n / tau_{n+1}) q_2n (same scale on 2n+1).

    The scales are irrational in general, so the output is float-valued;
    exact statements about this family go through the scale squares (the
    pairing <q_2m|q_2n+1> tau_n/tau_{n+1} = delta_mn is rational), and
    numerical statements through FamilyValues tables.
    """
    scales = rec.scale_squares()
    return [qs[j].as_float().scale(math.sqrt(float(scales[j // 2]))) for j in range(2 * rec.order)]


def lsolp_from_lsop(m, qtilde):
    """Alternating-basis family from orthonormal coefficient polynomials.

    Q_2m = z^-m qt_2m and Q_2m+1 = -z^-m-1 qt_2m; the odd members reuse the
    even polynomial, so only the even inputs matter.  The members are
    evaluated on the support and only their values are kept.  Coefficient
    arithmetic is ill-conditioned at higher order.
    """
    if len(qtilde) % 2:
        raise ValueError("expected an even count of family members")
    n = len(qtilde) // 2
    members = []
    for k in range(n):
        members.append(qtilde[2 * k].shift(-k))
        members.append(qtilde[2 * k].shift(-k - 1).scale(-1))
    fam = _family_from_polys(m, members)
    require_orthonormal(fam, "lsolp_from_lsop")
    return fam
