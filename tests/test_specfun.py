import itertools
import math
import sys

import numpy as np
import pytest

from fracstable import specfun
from fracstable.errors import DomainError, EvaluationError, RootNotFoundError
from fracstable.specfun import (F_family, F_remainders, GeneralIndex,
                                _F_rows, _rem_integral, _rem_series_mp,
                                _rem_table, ml_jet,
                                mittag_leffler, psi, psi_general,
                                psi_integral, theta_root)

# high-precision series oracle values (30-digit arbitrary precision sums)
ML_ORACLE = {
    (1.2, 0.3, 0): 1.3045860449264758,
    (1.2, 0.3, 1): 1.1303615149222825,
    (1.2, 0.3, 2): 0.81878241139448489,
    (1.2, 2.0, 0): 4.9961103922306317,
    (1.2, 2.0, 1): 3.661853370491838,
    (1.2, 2.0, 2): 2.4309127834737086,
    (1.2, 60.0, 0): 12318370453644.7,
    (1.2, 60.0, 1): 5188161335641.503,
    (1.2, 60.0, 2): 2170700355166.2704,
    (1.5, 0.3, 0): 1.2412030890688286,
    (1.5, 0.3, 1): 0.85756400920353718,
    (1.5, 0.3, 2): 0.36926118693013007,
    (1.5, 2.0, 0): 3.3487008963183954,
    (1.5, 2.0, 1): 1.6988911460485705,
    (1.5, 2.0, 2): 0.64210213980462078,
    (1.5, 60.0, 0): 3019867.5818322465,
    (1.5, 60.0, 1): 514256.22413295914,
    (1.5, 60.0, 2): 84716.21993019297,
    (1.8, 0.3, 0): 1.1857842117098614,
    (1.8, 0.3, 1): 0.64245828005783301,
    (1.8, 0.3, 2): 0.15708081370055398,
    (1.8, 2.0, 0): 2.5273175608171323,
    (1.8, 2.0, 1): 0.94969588751134222,
    (1.8, 2.0, 2): 0.20609775420196725,
    (1.8, 60.0, 0): 9289.0456506276955,
    (1.8, 60.0, 1): 836.3902514633514,
    (1.8, 60.0, 2): 69.113546870278853,
}

F_ORACLE = {
    (1.2, 0.5, 0): 1.4652153453283453,
    (1.2, 0.5, 1): 1.3018647103477762,
    (1.2, 0.5, 2): 1.4975122170276332,
    (1.2, 5.0, 0): 123.69695739687449,
    (1.2, 5.0, 1): 123.67395611164511,
    (1.2, 5.0, 2): 123.67891204344248,
    (1.2, 30.0, 0): 8905395484603.7216,
    (1.2, 30.0, 1): 8905395484603.7187,
    (1.2, 30.0, 2): 8905395484603.7188,
    (1.5, 0.5, 0): 1.2876612763406847,
    (1.5, 0.5, 1): 0.93074988051244416,
    (1.5, 0.5, 2): 1.353759361619746,
    (1.5, 5.0, 0): 98.965727569029734,
    (1.5, 5.0, 1): 98.935708631036454,
    (1.5, 5.0, 2): 98.944868962912571,
    (1.5, 30.0, 0): 7124316387682.9765,
    (1.5, 30.0, 1): 7124316387682.9747,
    (1.5, 30.0, 2): 7124316387682.9748,
    (1.8, 0.5, 0): 1.1775573301641837,
    (1.8, 0.5, 1): 0.66211111403730923,
    (1.8, 0.5, 2): 1.2269114990265584,
    (1.8, 5.0, 0): 82.465238187044012,
    (1.8, 5.0, 1): 82.445941325592485,
    (1.8, 5.0, 2): 82.455302848596331,
    (1.8, 30.0, 0): 5936930323069.1459,
    (1.8, 30.0, 1): 5936930323069.1455,
    (1.8, 30.0, 2): 5936930323069.1455,
}

# remainders F - e^x/a, F' - e^x/a, F'' - e^x/a at series / extended /
# asymptotic branch sample points
REM_ORACLE = {
    (1.2, 1.0): (0.065746314746535944, -0.036593960240821428,
                 0.040445757689309848),
    (1.2, 12.0): (0.0078687978427127186, -0.00071365000192475757,
                  0.00011803467276900986),
    (1.2, 22.0): (0.0039978045200770904, -0.0002073692494603482,
                  1.9648834234320247e-05),
    (1.5, 1.0): (0.12729937579438548, -0.088943528606753969,
                 0.098250160204317775),
    (1.5, 12.0): (0.0067383739223413771, -0.00083112502270387226,
                  0.0001692860642600519),
    (1.5, 22.0): (0.0027304428032124233, -0.00018571992040841097,
                  2.101481468297368e-05),
    (1.8, 1.0): (0.16534597683140843, -0.14405341237052822,
                 0.15302781956950461),
    (1.8, 12.0): (0.0021571801990475978, -0.00035165116948728117,
                  9.1073291719447267e-05),
    (1.8, 22.0): (0.00068543344299001999, -5.7568097154794506e-05,
                  7.5817314459786504e-06),
}

# asymptotic-branch points (truncated divergent series: looser tolerance)
REM_ASYM_ORACLE = {
    (1.2, 35.0): (0.0023394534464862205, -7.7871342599513417e-05,
                  4.7408380539829474e-06),
    (1.5, 35.0): (0.0013619479991613396, -5.8333715638802772e-05,
                  4.1621537848500778e-06),
    (1.8, 35.0): (0.00029282337034020129, -1.5225979813805221e-05,
                  1.2355544233441501e-06),
}

# arbitrary-precision numerical derivatives of E_1.5 at x=2
STACK_ORACLE = [3.3487008963183954, 1.6988911460485705, 0.64210213980462078,
                0.20134827681110639, 0.05502771582050145,
                0.013489261453236089, 0.0030225107226389953]


def test_ml_normalization_exact():
    for a in (1.2, 1.5, 1.8):
        assert mittag_leffler(a, 0.0) == 1.0


def test_ml_against_oracle():
    for (a, x, d), ref in ML_ORACLE.items():
        assert mittag_leffler(a, x, d) == pytest.approx(ref, rel=5e-12)


def test_ml_branch_consistency():
    # series and asymptotic expansions overlap smoothly near the switch
    for a in (1.2, 1.5, 1.8):
        lo = mittag_leffler(a, 24.9 ** a)
        hi = mittag_leffler(a, 25.1 ** a)
        assert lo < hi
        mid = 0.5 * (mittag_leffler(a, 24.99 ** a)
                     + mittag_leffler(a, 25.01 ** a))
        assert mittag_leffler(a, 25.0 ** a) == pytest.approx(
            mid, rel=1e-3)


def test_f_family_against_oracle():
    for (a, x, d), ref in F_ORACLE.items():
        assert F_family(a, x, d) == pytest.approx(ref, rel=1e-11)


def test_f_family_matches_ml_jet_across_switches():
    # oracle: F_alpha's own series summed term-wise in mpmath; the grid
    # crosses the switches at x = 9, 25 and 30 and nears both ends of (1,2)
    import mpmath as mp

    for a in (1.0 + 1e-6, 1.2, 1.5, 1.8, 2.0 - 1e-6):
        for x in (1e-3, 0.1, 0.7, 2.0, 5.0, 8.9, 9.1, 15.0, 24.99, 25.01,
                  29.9, 30.1):
            with mp.workdps(40 + x):
                jet = ml_jet(a, x, 2, p=a)
            for d in (0, 1, 2):
                assert F_family(a, x, d) == pytest.approx(float(jet[d]),
                                                          rel=1e-11)


def test_f_family_array_matches_scalar_and_ml_jet():
    # the array form sums the series as one log-space matrix on every x;
    # the grid crosses the scalar branch switches x = 3, 25 and 30
    import mpmath as mp

    grid = (1e-3, 0.1, 0.7, 2.0, 2.99, 3.01, 9.1, 15.0, 24.99, 25.01,
            29.9, 30.1, 40.0, 50.0)
    for a in (1.05, 1.2, 1.5, 1.8, 1.95):
        vals = [F_family(a, np.array(grid), d) for d in (0, 1, 2)]
        for i, x in enumerate(grid):
            with mp.workdps(40 + x):
                jet = ml_jet(a, x, 2, p=a)
            for d in (0, 1, 2):
                v = vals[d][i]
                assert v == pytest.approx(float(jet[d]), rel=1e-13), (a, x, d)
                assert v == pytest.approx(F_family(a, x, d), rel=1e-11)
    # the rows kernel takes F at x_i s_k from one matrix product per call
    xs = np.array([1e-3, 0.4, 2.9, 9.0, 17.0, 29.0])
    shares = np.array([1e-30, 1e-12, 1e-5, 0.01, 0.3, 0.77, 1.0])
    for a in (1.01, 1.2, 1.5, 1.8, 1.99):
        for d in (0, 1, 2):
            rows = _F_rows(a, xs, shares, d)
            assert rows.shape == (xs.size, shares.size)
            for (i, x), (k, s) in itertools.product(enumerate(xs),
                                                    enumerate(shares)):
                with mp.workdps(30):
                    jet = ml_jet(a, mp.mpf(x) * mp.mpf(s), 2, p=a)
                assert rows[i, k] == pytest.approx(float(jet[d]), rel=1e-12), \
                    (a, x, s, d)
    # from x = 600 on, a small share's leading terms drop below the float
    # range of the row's scale: such a row matches the log-space sum at x s,
    # or F at x overflows and the row raises
    for a in (1.01, 1.5, 1.99):
        for d in (0, 1, 2):
            for x in (600.0, 700.0, 710.0):
                try:
                    rows = _F_rows(a, np.array([x, 1.0]), shares, d)
                except EvaluationError as exc:
                    assert "float range" in str(exc)
                    continue
                ref = F_family(a, x * shares, d)
                assert np.allclose(rows[0], ref, rtol=1e-12, atol=0.0), \
                    (a, x, d)


def test_f_family_array_domain_and_overflow():
    for bad in ([1.0, math.nan], [2.0, -1.0], [0.0]):
        with pytest.raises(DomainError):
            F_family(1.5, np.array(bad), 1)
    with pytest.raises(DomainError):
        F_family(1.5, np.array([1.0]), 3)
    # 710.5 overflows in the sum, the rest before any matrix is built
    for x in (710.5, 800.0, 1e300, math.inf):
        for d in (0, 1, 2):
            with pytest.raises(EvaluationError, match="float range"):
                F_family(1.5, np.array([1.0, x]), d)
    assert np.isfinite(F_family(1.5, np.array([709.0]), 2)).all()


def test_f_remainders_against_oracle():
    for (a, x), (ra, rb, rc) in REM_ORACLE.items():
        assert F_remainders(a, x, "A") == pytest.approx(ra, rel=2e-10)
        assert F_remainders(a, x, "B") == pytest.approx(rb, rel=2e-10)
        assert F_remainders(a, x, "C") == pytest.approx(rc, rel=2e-10)


def test_f_remainders_asymptotic_branch():
    for (a, x), (ra, rb, rc) in REM_ASYM_ORACLE.items():
        assert F_remainders(a, x, "A") == pytest.approx(ra, rel=1e-7)
        assert F_remainders(a, x, "B") == pytest.approx(rb, rel=1e-7)
        assert F_remainders(a, x, "C") == pytest.approx(rc, rel=1e-7)


def _remainders_ml_jet(a, x):
    """A, B, C from F_alpha's series summed in mpmath at 60 + x digits."""
    import mpmath as mp

    with mp.workdps(60 + x):
        jet = ml_jet(a, x, 2, p=a)
        ex = mp.e ** mp.mpf(x) / mp.mpf(a)
        return [float(v - ex) for v in jet]


def test_f_remainders_match_ml_jet_across_branches():
    # x = 3 and 30 switch branches (series / Laplace integral / asymptotic),
    # x = 9 was the old mpmath window's edge and x = 25 is F_SWITCH; at
    # alpha = 2 - 1e-9 the peak of the integrand is ~3e-9 wide
    near_one = 1.0 + 1e-6
    grid = (0.1, 1.0, 2.9, 3.1, 5.0, 8.9, 9.1, 15.0, 24.99, 25.01, 29.9)
    for a in (near_one, 1.05, 1.2, 1.5, 1.8, 1.95, 2.0 - 1e-6, 2.0 - 1e-9):
        for x in grid:
            if a == near_one and x < 3.0:
                continue   # series-minus-exp cancels there (A ~ sin pi a)
            for d, ref in enumerate(_remainders_ml_jet(a, x)):
                assert F_remainders(a, x, "ABC"[d]) == pytest.approx(
                    ref, rel=1e-8), (a, x, d)
    for a in (1.2, 1.5, 1.8):
        for x in (30.1, 35.0):
            for d, ref in enumerate(_remainders_ml_jet(a, x)):
                assert F_remainders(a, x, "ABC"[d]) == pytest.approx(
                    ref, rel=1e-6), (a, x, d)


def test_rem_series_mp_matches_rem_integral():
    for a in (1.2, 1.5, 1.8):
        for x in (9.1, 15.0, 22.0, 29.9):
            for d in range(3):
                assert _rem_series_mp(a, x, "ABC"[d]) == pytest.approx(
                    _rem_integral(a, x, d), rel=1e-10)


def test_rem_integral_matches_rem_series_mp_to_1e_12(monkeypatch):
    # both sides of the theta panel (alpha > 3/2), its 3e-9 wide peak at
    # alpha = 2 - 1e-9, where the values fall to 6e-14, and the F_SWITCH
    # and REM_SWITCH edges
    alphas = (1.0 + 1e-6, 1.02, 1.05, 1.2, 1.5, 1.8, 1.95, 1.99, 2.0 - 1e-6,
              2.0 - 1e-9)
    xs = (3.0, 3.1, 4.0, 6.0, 9.1, 12.0, 15.0, 20.0, 24.99, 25.01, 29.0,
          29.999)
    for a in alphas:
        for x in xs:
            for d in range(3):
                assert _rem_integral(a, x, d) == pytest.approx(
                    _rem_series_mp(a, x, "ABC"[d]), rel=1e-12), (a, x, d)
    for x in (2.9, 30.1):
        with pytest.raises(DomainError):
            _rem_integral(1.5, x, 0)
    # no level change passes a negative tolerance: the last level's value
    # comes back as partial
    value = _rem_integral(1.8, 10.0, 1)
    monkeypatch.setattr(specfun, "_REM_TOL", -1.0)
    with pytest.raises(EvaluationError) as exc:
        _rem_integral(1.8, 10.0, 1)
    assert exc.value.partial == pytest.approx(value, rel=1e-13)
    assert 0.0 <= exc.value.bound <= 1e-12 * abs(value)


def test_rem_tables_are_bounded_read_only_and_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    for arr in _rem_table(1.8, 1):
        assert not arr.flags.writeable
    assert _rem_table.cache_info().maxsize is not None
    # alphas no other test uses, so every table is built under the threads;
    # each thread starts at a different x of the first alpha, so all four
    # ask for its three tables at once
    calls = [(a, x, w) for a in (1.31, 1.47, 1.63, 1.97)
             for x in (3.0, 7.5, 16.0, 29.5) for w in "ABC"]

    def run(shift):
        return {c: F_remainders(*c) for c in calls[shift:] + calls[:shift]}

    _rem_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, shift) for shift in (0, 3, 6, 9)]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    _rem_table.cache_clear()
    serial = run(0)
    assert all(vals == serial for vals in threaded)


def _derivative_stack(alpha, x, n_max):
    """E_alpha(x), E'_alpha(x), ..., E^(n_max) from ml_jet at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        return [float(v) for v in ml_jet(alpha, x, n_max)]


def test_derivative_stack_against_oracle():
    stack = _derivative_stack(1.5, 2.0, 6)
    for n, ref in enumerate(STACK_ORACLE):
        assert stack[n] == pytest.approx(ref, rel=1e-10)


def test_derivative_stack_far_out_and_at_zero():
    # x ** (n - m) overflows float64 here; the 40-digit sum does not
    stack = _derivative_stack(1.2, 200.0, 6)
    assert all(math.isfinite(v) and v > 0.0 for v in stack)
    for d in (0, 1, 2):
        assert stack[d] == pytest.approx(mittag_leffler(1.2, 200.0, d),
                                         rel=1e-12)
    # E^(m)(0) = m!/Gamma(alpha m + 1): only the k = m term survives
    for m, v in enumerate(_derivative_stack(1.5, 0.0, 4)):
        assert v == pytest.approx(math.factorial(m) / math.gamma(1.5 * m + 1),
                                  rel=1e-15)


def test_psi_gamma_ratio():
    assert psi(1.5, 2.3) == pytest.approx(4.0234218788940364, rel=1e-13)
    assert psi(1.5, 0.0) == 0.0


def test_psi_integral_matches_gamma_ratio():
    for a in (1.2, 1.5, 1.8):
        for lam in (0.5, 1.0, 2.0, 5.0):
            assert psi_integral(a, lam) == pytest.approx(psi(a, lam),
                                                         rel=1e-8)


def test_theta_root_spectrally_negative():
    # one-sided case: the positive zero of the general exponent sits at 1
    idx = GeneralIndex(1.5, 0.0, 1.0)
    assert theta_root(idx) == pytest.approx(1.0, abs=1e-10)


def test_theta_root_symmetric_weights():
    idx = GeneralIndex(1.5, 1.0, 1.0)
    root = theta_root(idx)
    assert psi_general(idx, -root) == pytest.approx(0.0, abs=1e-9)
    assert 0.0 < root < idx.alpha


def test_validation_errors():
    with pytest.raises(DomainError):
        GeneralIndex(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        GeneralIndex(1.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        GeneralIndex(1.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.5, -1.0)
    with pytest.raises(DomainError):
        mittag_leffler(1.5, 1.0, 3)
    with pytest.raises(DomainError):
        F_family(2.5, 1.0)
    with pytest.raises(DomainError):
        F_family(1.0, 1.0)
