"""QUADPACK's adaptive Gauss-Kronrod quadrature, ported to Python.

``quad`` is ``scipy.integrate.quad`` over a finite interval without a weight:
``dqagse`` without breakpoints and ``dqagpe`` with them, with their helpers
``dqk21`` (the 21-point Gauss-Kronrod rule and its error estimate),
``dqpsrt`` (the descending list of subinterval errors) and ``dqelg`` (Wynn's
epsilon algorithm).  Each is ported operation by operation from QUADPACK
(R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner,
*QUADPACK: A Subroutine Package for Automatic Integration*, Springer 1983;
public domain), which scipy wraps, so on IEEE doubles it returns scipy's
value, error estimate, evaluation count and subinterval count to the bit.

The arrays are 1-based as in QUADPACK (index 0 unused) and grow by one
subinterval per bisection instead of holding ``limit``; sums run in
QUADPACK's order, term by term (never ``sum``, which compensates from Python
3.12 on), and only the error flag's effect on the result is kept: the
returned value and estimate are the ones QUADPACK returns whatever its
``ier``.

The two drivers share one bisection loop.  They differ in three places:
``dqagse`` leaves at once only when the first estimate meets the tolerance
and differs from ``resasc`` (or is 0), it resets the extrapolation test
bound to the current tolerance after its first bisection, and it accepts an
extrapolated estimate equal to that bound.  Its "small interval" test,
width below 0.375 |b - a| halved per extrapolation, is ``dqagpe``'s level
test: a subinterval is large while its bisection level is below ``levmax``.
"""

from __future__ import annotations

import sys
from typing import Callable

__all__ = ["quad", "GK21_X", "GK21_WK", "GK21_WG"]

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)

# dqk21's abscissae xgk (the Kronrod nodes on [0, 1], the Gauss nodes at
# even positions of the Fortran 1-based list, 0 last), the Kronrod weights
# wgk and the Gauss weights wg of the embedded 10-point rule.
GK21_X = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
GK21_WK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
GK21_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

_LIMEXP = 50  # dqelg's longest epsilon table


def quad(
    f: Callable[[float], float], a: float, b: float, epsabs: float, epsrel: float,
    limit: int, points=None,
) -> tuple[float, float, int, int]:
    """(value, estimate, neval, last) of int_a^b f, as ``scipy.integrate.quad``.

    ``points`` None runs ``dqagse``; otherwise the distinct breakpoints
    strictly inside (a, b), sorted, go to ``dqagpe``.  b < a integrates over
    [b, a] and negates the value; a == b returns (0, 0, 0, 0).  ``neval``
    counts evaluations of f and ``last`` the subintervals.  ValueError for
    the inputs QUADPACK refuses (``ier`` = 6).  An exception from f
    propagates.
    """
    if a == b:
        return 0.0, 0.0, 0, 0
    flip, a, b = b < a, float(min(a, b)), float(max(a, b))
    # scipy's np.unique, then the points strictly inside (a, b), as a sorted set
    inner = None if points is None else sorted({float(p) for p in points if a < p < b})
    if limit < 1 or limit <= len(inner or ()) or (
        epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28)
    ):
        raise ValueError(
            f"invalid quadrature input: limit {limit}, epsabs {epsabs}, epsrel {epsrel}, "
            f"{len(inner or ())} breakpoints"
        )
    value, estimate, neval, last = _qag(f, a, b, inner, epsabs, epsrel, limit)
    return (-value if flip else value), estimate, neval, last


def qk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float, float, float]:
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b].

    ``resabs`` approximates int |f| and ``resasc`` int |f - mean f|.
    """
    xgk, wgk, wg = GK21_X, GK21_WK, GK21_WG
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = wgk[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in range(5):  # the Gauss nodes
        jtw = 2 * j + 1
        absc = hlgth * xgk[jtw]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + wg[j] * fsum
        resk = resk + wgk[jtw] * fsum
        resabs = resabs + wgk[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):  # the Kronrod-only nodes
        jtwm1 = 2 * j
        absc = hlgth * xgk[jtwm1]
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + wgk[jtwm1] * fsum
        resabs = resabs + wgk[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = wgk[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int):
    """dqpsrt: keep ``iord`` ordering the errors descending, after interval
    ``maxerr`` was bisected into ``maxerr`` and ``last``.

    Returns (maxerr, errmax, nrmax): the interval to bisect next, its error,
    and its position in ``iord``.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        # the bisection may have raised the error: move maxerr up first
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the first jupbn entries are kept in order: as many as
        # bisections remain
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):  # insert errmin bottom-up
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def qelg(n: int, epstab: list, res3la: list, nres: int):
    """dqelg: Wynn's epsilon algorithm on the limits ``epstab[1..n]``.

    Returns (result, abserr, n, nres): the extrapolated limit, its error
    estimate, the table's new length (``epstab`` is updated in place) and the
    number of calls so far (``res3la`` keeps the last three results).
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return result, max(abserr, 5.0 * _EPMACH * abs(result)), n, nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return result, max(abserr, 5.0 * _EPMACH * abs(result)), n, nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two elements nearly equal: drop part of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 0.1e-3:
            n = i + i - 1  # irregular behaviour: drop part of the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return result, max(abserr, 5.0 * _EPMACH * abs(result)), n, nres


def _qag(f, a, b, inner, epsabs, epsrel, limit):
    """dqagse (``inner`` None) or dqagpe (sorted breakpoints inside (a, b)) on a < b."""
    qagse = inner is None
    pts = [a, *(inner or ()), b]
    nint = len(pts) - 1
    npts2 = nint + 1
    # the subinterval lists, each bisection appending its second half
    alist, blist = [0.0, *pts[:-1]], [0.0, *pts[1:]]
    rlist, elist = [0.0], [0.0]
    iord = list(range(npts2))
    level = [0] * npts2
    ier = 0

    # first approximations, one rule per breakpoint interval
    if qagse:
        result, abserr, resabs, resasc = qk21(f, a, b)
        rlist.append(result)
        elist.append(abserr)
        errsum = abserr
    else:
        result = abserr = resabs = 0.0
        replaced = []  # dqagpe's ndin: an estimate equal to resasc is replaced by the total
        for i in range(1, npts2):
            area1, error1, defabs, resa = qk21(f, alist[i], blist[i])
            abserr = abserr + error1
            result = result + area1
            resabs = resabs + defabs
            if error1 == resa and error1 != 0.0:
                replaced.append(i)
            rlist.append(area1)
            elist.append(error1)
        errsum = 0.0
        for i in range(1, npts2):
            if i in replaced:
                elist[i] = abserr
            errsum = errsum + elist[i]
    neval = 21 * nint
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 0.1e3 * _EPMACH * resabs and abserr > errbnd:
        ier = 2
    for i in range(1, nint):  # order iord by descending error
        ind1 = iord[i]
        k = i
        for j in range(i + 1, nint + 1):
            ind2 = iord[j]
            if elist[ind1] > elist[ind2]:
                continue
            ind1 = ind2
            k = j
        if ind1 != iord[i]:
            iord[k] = iord[i]
            iord[i] = ind1
    if limit < npts2:
        ier = 1
    if qagse:
        done = (abserr <= errbnd and abserr != resasc) or abserr == 0.0
    else:
        done = abserr <= errbnd
    if ier != 0 or done:
        return result, abserr, neval, nint

    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    numrl2 = 1
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    nrmax = 1
    nres = 0
    ktmin = 0
    extrap = False
    noext = False
    erlarg = errsum
    ertest = errbnd
    levmax = 1
    iroff1 = iroff2 = iroff3 = 0
    ierro = 0
    abserr = _OFLOW
    correc = 0.0
    summed = False  # the loop ends on errsum <= errbnd: the result is the plain sum

    for last in range(npts2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        levcur = level[maxerr] + 1
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = qk21(f, a1, b1)
        area2, error2, _, defab2 = qk21(f, a2, b2)

        # improve the integral and error sums and test for accuracy
        neval += 42
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (
                abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12) or erro12 < 0.99 * errmax
            ):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        level[maxerr] = levcur
        level.append(levcur)
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))

        # round-off, the subinterval limit, and bad integrand behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (0.1e1 + 0.1e3 * _EPMACH) * (abs(a2) + 0.1e4 * _UFLOW):
            ier = 4

        # append the new subintervals, the larger error at maxerr
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to bisect next one of the smallest?
            if level[maxerr] + 1 <= levmax:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: bisect the larger
            # ones first while their errors (erlarg) exceed the test bound
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if level[maxerr] + 1 <= levmax:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        if numrl2 > 2:
            reseps, abseps, numrl2, nres = qelg(numrl2, rlist2, res3la, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 0.1e-2 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr < ertest or (qagse and abserr == ertest):
                    break
            if numrl2 == 1:
                noext = True
            if ier >= 5:
                break
        elif qagse:
            ertest = errbnd  # dqagse's bound after its first bisection

        # prepare to bisect the smallest interval
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        levmax += 1
        erlarg = errsum

    if not summed and abserr != _OFLOW:
        if ier + ierro == 0:
            return result, abserr, neval, last
        if ierro == 3:
            abserr = abserr + correc
        if result != 0.0 and area != 0.0:
            if not abserr / abs(result) > errsum / abs(area):
                return result, abserr, neval, last
        elif not abserr > errsum:
            return result, abserr, neval, last
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, neval, last
