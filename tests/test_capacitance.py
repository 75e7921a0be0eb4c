import math

import numpy as np
import pytest

from oracles import charge_energy_T0, charge_numeric, quantum_capacitance
from qcapsim.capacitor import (
    SWEEP_CSV_HEADER,
    capacitance_sweep,
    charge_series_coefficients,
    design_check,
    energy_series_coefficients,
    geometric_capacitance,
    linear_capacitance_C0,
    ln_2_plus_2cosh,
    quantum_capacitance_T0,
    series_capacitance,
)
from qcapsim.constants import E, HBAR, K_B, V_F, f_per_m2_to_ff_per_um2

CG = geometric_capacitance(7e-9, 4.0)  # the published design: t = 7 nm, eps_r = 4
AREA = 1e-10  # 100 um^2


# --- stable special function -------------------------------------------------

def test_ln_2_plus_2cosh_matches_naive_form():
    x = np.linspace(-30.0, 30.0, 301)
    naive = np.log(2.0 * (1.0 + np.cosh(x)))
    assert np.max(np.abs(ln_2_plus_2cosh(x) - naive)) < 1e-13


def test_ln_2_plus_2cosh_survives_huge_arguments():
    # naive cosh overflows beyond ~710; the stable form tends to |x|
    for x in (800.0, -800.0, 5e4):
        val = ln_2_plus_2cosh(x)
        assert math.isfinite(val)
        assert val == pytest.approx(abs(x), rel=1e-15, abs=0.0)


def test_ln_2_plus_2cosh_scalar_and_array_agree():
    xs = np.concatenate(([-3.0, 0.0, 0.7, 12.0], np.linspace(-40.0, 40.0, 8001)))
    arr = ln_2_plus_2cosh(xs)
    scalars = np.array([ln_2_plus_2cosh(float(x)) for x in xs])
    assert np.array_equal(arr, scalars)


# --- quantum capacitance -----------------------------------------------------

def test_quantum_capacitance_zero_bias_value():
    # direct evaluation: ln[2(1+cosh 0)] = ln 4, i.e. half of ln 16
    expected = 2.0 * E**2 * K_B * 1.0 * math.log(4.0) / (math.pi * (HBAR * V_F) ** 2)
    got = quantum_capacitance(1.0, 0.0)
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
    assert got == pytest.approx(2.816361713774626e-05, rel=1e-12, abs=0.0)
    assert got == pytest.approx(linear_capacitance_C0(1.0) / 2.0, rel=1e-14, abs=0.0)


def test_quantum_capacitance_even_in_voltage():
    rng = np.random.default_rng(30)
    for T in (0.25, 1.0, 4.0):
        for v in rng.uniform(0.0, 0.2, size=40):
            a = quantum_capacitance(T, v)
            b = quantum_capacitance(T, -v)
            assert a == pytest.approx(b, rel=1e-15, abs=0.0)


def test_quantum_capacitance_large_bias_approaches_linear_form():
    v = 0.1
    finite = quantum_capacitance(1.0, v)
    limit = quantum_capacitance_T0(v)
    assert finite == pytest.approx(limit, rel=0.01, abs=0.0)


def test_quantum_capacitance_rejects_nonpositive_temperature():
    with pytest.raises(ValueError, match="temperature"):
        quantum_capacitance(0.0, 0.0)


def test_quantum_capacitance_rejects_nan_temperature():
    with pytest.raises(ValueError, match="temperature"):
        quantum_capacitance(math.nan, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="temperature"):
            linear_capacitance_C0(bad)
        with pytest.raises(ValueError, match="temperature"):
            capacitance_sweep(CG, [bad], np.array([0.0]))


def test_quantum_capacitance_T0_zero_and_parity():
    assert quantum_capacitance_T0(0.0) == 0.0
    rng = np.random.default_rng(31)
    for v in rng.uniform(0.0, 1.0, size=20):
        assert quantum_capacitance_T0(v) == quantum_capacitance_T0(-v)


def test_quantum_capacitance_T0_is_millikelvin_limit():
    v = 0.05
    t0 = quantum_capacitance_T0(v)
    assert t0 == pytest.approx(E**3 * v / (math.pi * (HBAR * V_F) ** 2), rel=1e-14, abs=0.0)
    cold = quantum_capacitance(1e-3, v)
    assert cold == pytest.approx(t0, rel=1e-3, abs=0.0)


# --- geometric and series ------------------------------------------------------

def test_geometric_capacitance_published_value():
    got = f_per_m2_to_ff_per_um2(geometric_capacitance(7e-9, 4.0))
    assert got == pytest.approx(5.06, rel=5e-3, abs=0.0)
    assert got == pytest.approx(5.059535893028571, rel=1e-12, abs=0.0)


def test_geometric_capacitance_inverse_thickness_scaling():
    assert geometric_capacitance(14e-9, 4.0) == pytest.approx(
        geometric_capacitance(7e-9, 4.0) / 2.0, rel=1e-15, abs=0.0,
    )


def test_geometric_capacitance_vacuum_reference():
    assert f_per_m2_to_ff_per_um2(geometric_capacitance(8.854e-9, 1.0)) == pytest.approx(
        1.0, rel=1e-4, abs=0.0
    )


def test_nonpositive_thickness_rejected():
    with pytest.raises(ValueError, match="dielectric_thickness_t"):
        geometric_capacitance(0.0, 4.0)


# the ids keep the names these cases have always had; each message names its field
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "field",
    ["dielectric_thickness_t", "relative_permittivity"],
    ids=["dielectric_thickness_t-NonPositiveThickness", "relative_permittivity-ValueError"],
)
def test_non_finite_design_rejected(field, value):
    # thickness, then permittivity: the two arguments in order
    fields = {"dielectric_thickness_t": 7e-9, "relative_permittivity": 4.0, field: value}
    with pytest.raises(ValueError, match=field):
        geometric_capacitance(*fields.values())


# the ids keep the names these cases have always had; each message names its quantity
@pytest.mark.parametrize(
    "T,V,quantity",
    [
        (math.nan, 0.0, "temperature"),
        (math.inf, 0.0, "temperature"),
        (-1.0, 0.0, "temperature"),
        (1.0, math.nan, "voltage"),
        (1.0, math.inf, "voltage"),
        (1.0, -math.inf, "voltage"),
    ],
    ids=[
        "nan-0.0-NonPositiveTemperature", "inf-0.0-NonPositiveTemperature",
        "-1.0-0.0-NonPositiveTemperature", "1.0-nan-ValueError", "1.0-inf-ValueError",
        "1.0--inf-ValueError",
    ],
)
def test_operating_point_validation(T, V, quantity):
    # each scalar oracle of (T, V) checks both itself; the series coefficients check T
    for formula in (quantum_capacitance, charge_numeric):
        formula(1.0, -0.05)
        with pytest.raises(ValueError, match=quantity):
            formula(T, V)
    if quantity == "temperature":
        for coefficients in (charge_series_coefficients, energy_series_coefficients):
            with pytest.raises(ValueError, match="temperature"):
                coefficients(T)


def _series(T, V):
    return series_capacitance(CG, quantum_capacitance(T, V))


def test_series_capacitance_below_both_components():
    cs = _series(1.0, 0.01)
    assert cs < CG
    assert cs < quantum_capacitance(1.0, 0.01)


def test_series_capacitance_zero_bias_near_quantum_value():
    cs = _series(1.0, 0.0)
    cq = quantum_capacitance(1.0, 0.0)
    assert cs == pytest.approx(cq, rel=0.012, abs=0.0)
    assert cs == pytest.approx(cq / (1.0 + cq / CG), rel=1e-14, abs=0.0)


def test_series_capacitance_approaches_geometric_at_large_bias():
    prev_dev = None
    for v in (0.5, 1.0, 2.0):
        cs = _series(1.0, v)
        dev = abs(cs - CG) / CG
        if prev_dev is not None:
            assert dev < prev_dev
        prev_dev = dev
    assert prev_dev < 0.03


def test_series_capacitance_even_in_voltage():
    a = _series(1.0, 0.03)
    b = _series(1.0, -0.03)
    assert a == pytest.approx(b, rel=1e-15, abs=0.0)


# --- zero-temperature charge/energy -------------------------------------------

def test_charge_energy_T0_zero():
    assert charge_energy_T0(0.0) == (0.0, 0.0)


def test_charge_energy_T0_parity():
    rng = np.random.default_rng(32)
    for v in rng.uniform(0.0, 0.5, size=25):
        qp, up = charge_energy_T0(v)
        qm, um = charge_energy_T0(-v)
        assert qm == -qp
        assert um == up
        assert up >= 0.0


def test_charge_energy_T0_density_form_identity():
    # U = (1/3) sqrt(2 pi) hbar v_F N^(3/2) with N = |Q|/e, on the charging branch
    rng = np.random.default_rng(33)
    for v in rng.uniform(1e-4, 0.5, size=10):
        q, u = charge_energy_T0(v)
        n = abs(q) / E
        alt = (1.0 / 3.0) * math.sqrt(2.0 * math.pi) * HBAR * V_F * math.copysign(1.0, q) * n**1.5
        assert alt == pytest.approx(u, rel=1e-10, abs=0.0)


def test_charge_energy_T0_derivative_consistency():
    # dQ/dV equals the zero-temperature capacitance (central differences)
    v, h = 0.02, 1e-7
    qp, _ = charge_energy_T0(v + h)
    qm, _ = charge_energy_T0(v - h)
    assert (qp - qm) / (2 * h) == pytest.approx(
        quantum_capacitance_T0(v), rel=1e-8, abs=0.0
    )


# --- series expansions vs the quadrature oracle --------------------------------

@pytest.mark.parametrize("T", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("frac", [0.05, 0.1, 0.2])
def test_charge_series_matches_quadrature(T, frac):
    c1, c3 = charge_series_coefficients(T)
    v = frac * K_B * T / E
    series = E * (c1 * v + c3 * v**3)
    oracle = charge_numeric(T, v)
    assert series == pytest.approx(oracle, rel=1e-4, abs=0.0)


def test_charge_numeric_zero():
    assert charge_numeric(1.0, 0.0) == 0.0


def test_charge_numeric_negative_voltage_odd():
    v = 2e-5
    qp = charge_numeric(1.0, v)
    qm = charge_numeric(1.0, -v)
    assert qm == pytest.approx(-qp, rel=1e-10, abs=0.0)


def test_charge_numeric_millikelvin_matches_T0_charge():
    v = 5e-3
    quad_val = charge_numeric(1e-3, v)
    closed, _ = charge_energy_T0(v)
    assert quad_val == pytest.approx(closed, rel=1e-3, abs=0.0)


def test_quadrature_derivative_reproduces_capacitance():
    # step-size-robust central differences with Richardson extrapolation
    v0, T = 1e-3, 1.0
    target = quantum_capacitance(T, v0)
    for h in (4e-6, 2e-6):
        def central(step):
            qp = charge_numeric(T, v0 + step)
            qm = charge_numeric(T, v0 - step)
            return (qp - qm) / (2 * step)

        richardson = (4.0 * central(h / 2) - central(h)) / 3.0
        assert richardson == pytest.approx(target, rel=1e-6, abs=0.0)


def test_cubic_coefficient_by_richardson_extrapolation():
    # strip the linear part from the quadrature oracle and extrapolate the
    # cubic coefficient; both must land on the implemented expansion terms
    T = 1.0
    c1, c3 = charge_series_coefficients(T)
    c_lin = quantum_capacitance(T, 0.0) / E  # dN/dV at 0
    assert c1 == pytest.approx(c_lin, rel=1e-12, abs=0.0)
    v = 0.05 * K_B * T / E

    def cubic_estimate(vv):
        n = charge_numeric(T, vv) / E
        return (n - c_lin * vv) / vv**3

    est = (4.0 * cubic_estimate(v / 2) - cubic_estimate(v)) / 3.0
    assert est == pytest.approx(c3, rel=1e-3, abs=0.0)


# --- closed-form charge vs an independent Gauss-Legendre integral ----------------

def _charge_scale(T):
    """prefactor * 2 k_B T / e: Q = scale * int_0^X ln(2 + 2 cosh x) dx."""
    return 2.0 * E**2 * K_B * T / (math.pi * (HBAR * V_F) ** 2) * (2.0 * K_B * T / E)


def _gauss_legendre_charge_integral(X):
    """int_0^X ln(2 + 2 cosh x) dx by 20-point Gauss-Legendre on panels of
    width 0.5 up to min(X, 60); beyond 60 the integrand is x to 1e-26."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    top = min(X, 60.0)
    edges = np.append(np.arange(0.0, top, 0.5), top)
    lo, hi = edges[:-1, None], edges[1:, None]
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    panels = 0.5 * (hi - lo)[:, 0] * (np.log(2.0 + 2.0 * np.cosh(x)) @ weights)
    return float(np.sum(panels)) + (0.5 * (X * X - 3600.0) if X > 60.0 else 0.0)


@pytest.mark.parametrize(
    "X",
    [1e-9, 1e-6, 1e-4, 1e-3, 9.999e-3, 1e-2, 1.0001e-2, 0.03, 0.07, 0.5, 1.0, 3.7,
     10.0, 37.3, 59.9, 60.0, 60.1, 100.0, 700.0, 800.0, 1e3, 1e4, 1e5],
)
def test_charge_numeric_matches_gauss_legendre(X):
    # spans the small-X Taylor branch, its seam near X = 1e-2, the Li2 branch
    # and the range where e^-X underflows
    T = 1.0
    v = 2.0 * K_B * T * X / E
    expected = _charge_scale(T) * _gauss_legendre_charge_integral(X)
    got = charge_numeric(T, v)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "T,v", [(0.05, 0.05), (0.05, -0.05), (1e-3, 1e-3), (1e-3, 5e-3)]
)
def test_charge_numeric_low_temperature_large_bias(T, v):
    # e|V| >> k_B T: an adaptive quadrature that misses the kink at V = 0
    # lands 9.8e-8 (first three) and 3.9e-9 (last) low here
    X = E * abs(v) / (2.0 * K_B * T)
    expected = math.copysign(_charge_scale(T) * _gauss_legendre_charge_integral(X), v)
    got = charge_numeric(T, v)
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_charge_numeric_large_x_exact():
    # X ~ 5.8e3: Li2(-e^-X) is 0 in double precision, so the integral is
    # exactly X^2/2 + pi^2/6
    T, v = 0.05, 0.05
    X = E * v / (2.0 * K_B * T)
    expected = _charge_scale(T) * (0.5 * X * X + math.pi**2 / 6.0)
    got = charge_numeric(T, v)
    assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_linear_capacitance_published_values():
    c0 = linear_capacitance_C0(1.0)
    assert f_per_m2_to_ff_per_um2(c0) == pytest.approx(0.0563, rel=0.01, abs=0.0)
    assert f_per_m2_to_ff_per_um2(c0) == pytest.approx(0.056327234275492515, rel=1e-12, abs=0.0)
    total_fF = AREA * c0 * 1e15
    assert total_fF == pytest.approx(5.63, rel=0.01, abs=0.0)


def test_linear_capacitance_linearity_in_temperature():
    assert linear_capacitance_C0(2.0) == pytest.approx(
        2.0 * linear_capacitance_C0(1.0), rel=1e-14, abs=0.0
    )


def test_energy_series_curvature_is_inverse_linear_capacitance():
    # d^2U/dN^2 at N = 0, 2 a, equals pi (hbar v_F)^2 / (k_B T ln 16) = 2 e^2 / C_0;
    # b is (pi (hbar v_F)^2 / 2 k_B T)(pi^2/4)(hbar v_F / ln16 k_B T)^4
    T = 1.0
    a, b = energy_series_coefficients(T)
    kT, hv, ln16 = K_B * T, HBAR * V_F, math.log(16.0)
    leading = math.pi * hv**2 / (kT * ln16)
    quartic = (math.pi * hv**2 / (2.0 * kT)) * (math.pi**2 / 4.0) * (hv / (ln16 * kT)) ** 4
    assert 2.0 * a == pytest.approx(leading, rel=1e-12, abs=0.0)
    assert b == pytest.approx(quartic, rel=1e-12, abs=0.0)
    assert leading == pytest.approx(
        2.0 * E**2 / linear_capacitance_C0(T), rel=1e-6, abs=0.0
    )


@pytest.mark.parametrize("T", [0.25, 1.0, 4.0])
def test_energy_series_quartic_is_twelve_times_the_charge_model(T):
    # Inverting N = c1 V + c3 V^3 and integrating U = int e V dN gives
    # U = e N^2 / 2 c1 - e c3 N^4 / 4 c1^4; U = a N^2 - b N^4 keeps the quadratic
    # term and carries 12 times the quartic one (see energy_series_coefficients).
    c1, c3 = charge_series_coefficients(T)
    a, b = energy_series_coefficients(T)
    assert a == pytest.approx(E / (2.0 * c1), rel=1e-12, abs=0.0)
    assert b / (E * c3 / (4.0 * c1**4)) == pytest.approx(12.0, rel=1e-12, abs=0.0)


# --- design rules ----------------------------------------------------------------

def test_design_check_published_geometry_passes():
    report = design_check(7e-9, 4.0, 1.0)
    assert report.thickness_ok and report.dominance_ok
    assert report.dominance_ratio == pytest.approx(0.011133, rel=1e-3, abs=0.0)
    assert report.dominance_ratio == report.C_0_areal / report.C_G_areal


def test_design_check_checks_thickness_then_permittivity_then_temperature():
    # the order in which design-check reports a bad flag
    for args, named in (((0.0, 0.0, 0.0), "dielectric_thickness_t"),
                        ((7e-9, 0.0, 0.0), "relative_permittivity"),
                        ((7e-9, 4.0, 0.0), "temperature")):
        with pytest.raises(ValueError, match=named):
            design_check(*args)


@pytest.mark.parametrize("t_nm,ok", [(2.0, False), (3.5, True), (69.0, True), (100.0, False)])
def test_design_check_thickness_window(t_nm, ok):
    assert design_check(t_nm * 1e-9, 4.0, 1.0).thickness_ok is ok


def test_design_check_dominance_fails_when_too_thick():
    # at large t the geometric capacitance drops toward C_0 and dominance is lost
    report = design_check(65e-9, 4.0, 10.0)
    assert not report.dominance_ok


# --- sweep -------------------------------------------------------------------------

def test_sweep_rows_and_invariants():
    grid = np.linspace(-0.05, 0.05, 41)
    result = capacitance_sweep(CG, [0.0, 0.25, 1.0, 4.0], grid)
    assert len(result.T_K) == 4 * 41
    assert np.all(result.Cseries_areal <= result.CQ_areal + 1e-30)
    # V = 0 column grows with temperature
    zero_bias = {}
    for t, v, cq in zip(result.T_K, result.V_volt, result.CQ_areal):
        if v == 0.0:
            zero_bias[float(t)] = float(cq)
    assert zero_bias[0.0] == 0.0
    assert zero_bias[0.25] < zero_bias[1.0] < zero_bias[4.0]


def test_sweep_zero_temperature_branch_matches_explicit_form():
    grid = np.array([-0.02, 0.0, 0.02])
    result = capacitance_sweep(CG, [0.0], grid)
    expected = quantum_capacitance_T0(grid)
    assert np.allclose(result.CQ_areal, expected, rtol=1e-14, atol=0)


def test_sweep_matches_pointwise_quantum_capacitance():
    # a cell of the sweep carries the same bits as the scalar evaluation, in
    # T-major blocks: every V at the first temperature, then at the next
    volts = np.random.default_rng(1010).uniform(-5e-3, 5e-3, size=5000)
    temperatures = [0.0, 0.25, 1.0, 4.0]
    result = capacitance_sweep(CG, temperatures, volts)
    for block, T in enumerate(temperatures):
        cells = slice(block * volts.size, (block + 1) * volts.size)
        assert np.array_equal(result.T_K[cells], np.full(volts.size, T))
        assert np.array_equal(result.V_volt[cells], volts)
        pointwise = np.array([
            quantum_capacitance_T0(float(v)) if T == 0.0 else quantum_capacitance(T, float(v))
            for v in volts
        ])
        assert np.array_equal(result.CQ_areal[cells], pointwise)
        series = np.array([series_capacitance(CG, c) for c in pointwise])
        assert np.array_equal(result.Cseries_areal[cells], series)


def test_sweep_large_bias_plateau():
    grid = np.array([-2.0, 2.0])
    result = capacitance_sweep(CG, [1.0], grid)
    assert np.all(np.abs(result.Cseries_areal - CG) / CG < 0.03)


def test_sweep_monotonic_in_absolute_voltage():
    grid = np.linspace(0.0, 0.05, 30)
    result = capacitance_sweep(CG, [1.0], grid)
    assert np.all(np.diff(result.CQ_areal) > 0.0)


def test_sweep_header_and_engineering_rows():
    assert SWEEP_CSV_HEADER == ("T_K", "V_volt", "CQ_fF_per_um2", "Cseries_fF_per_um2")
    result = capacitance_sweep(CG, [1.0], np.array([0.0]))
    rows = result.columns()
    assert rows.shape == (1, len(SWEEP_CSV_HEADER)) and rows.dtype == np.float64
    assert rows[0][0] == 1.0 and rows[0][1] == 0.0
    assert rows[0][2] == pytest.approx(0.028163617138, rel=1e-9, abs=0.0)


def test_sweep_rejects_negative_temperature():
    with pytest.raises(ValueError, match="temperature"):
        capacitance_sweep(CG, [-1.0], np.array([0.0]))


def test_underflowing_capacitance_scale_rejected():
    # at T = 1e-300 K the prefactor underflows and every C_Q would read 0
    with pytest.raises(ValueError, match="out of range"):
        quantum_capacitance(1e-300, 0.01)
    with pytest.raises(ValueError, match="out of range"):
        linear_capacitance_C0(1e-300)
    with pytest.raises(ValueError, match="out of range"):
        capacitance_sweep(CG, [1e-300], np.array([0.0, 0.01]))


# --- randomized parity/monotonicity properties -----------------------------------

def test_random_parity_properties():
    rng = np.random.default_rng(34)
    voltages = rng.uniform(0.0, 0.3, size=200)
    cq_p = np.asarray([quantum_capacitance(1.0, v) for v in voltages])
    cq_m = np.asarray([quantum_capacitance(1.0, -v) for v in voltages])
    assert np.allclose(cq_p, cq_m, rtol=1e-14, atol=0)
    assert np.all(cq_p > 0.0)


def test_zero_bias_capacitance_increases_with_temperature():
    temps = np.linspace(0.05, 10.0, 50)
    values = [quantum_capacitance(t, 0.0) for t in temps]
    assert np.all(np.diff(values) > 0.0)
