import math
import sys

import numpy as np
import pytest

from oracles import fermi_energy
from qcapsim import constants
from qcapsim.constants import SPEED_OF_LIGHT, V_F

# independent copies of the CODATA 2018 values (>= 6 significant digits)
CODATA_2018 = {
    "E": 1.602176634e-19,
    "K_B": 1.380649e-23,
    "HBAR": 1.054571817e-34,
    "H": 6.62607015e-34,
    "SPEED_OF_LIGHT": 299792458.0,
    "EPSILON_0": 8.8541878128e-12,
}


def test_constants_match_codata_to_six_digits():
    for name, value in CODATA_2018.items():
        assert getattr(constants, name) == pytest.approx(value, rel=1e-6, abs=0.0)


def test_fermi_velocity_is_c_over_300():
    assert V_F == pytest.approx(SPEED_OF_LIGHT / 300.0, rel=1e-12, abs=0.0)


def test_all_constants_positive():
    for name in (*CODATA_2018, "V_F", "PI_HBAR_VF_SQ"):
        assert getattr(constants, name) > 0.0


# Reference inverses, written out here rather than taken from the library,
# so a round trip through each pins its forward factor against an
# independent spelling.
def rad_per_s_to_ghz(omega):
    return omega / (2.0 * math.pi * 1e9)


def hz_to_ghz(f_hz):
    return f_hz / 1e9


def m2_to_um2(area_m2):
    return area_m2 / 1e-12


def m_to_nm(t_m):
    return t_m / 1e-9


def nm_to_m(t_nm):
    return t_nm / 1e9


def ff_per_um2_to_f_per_m2(c_areal_ff):
    return c_areal_ff / 1e3


def femtofarad_to_farad(c_ff):
    return c_ff / 1e15


def rad_to_pi_units(phi_rad):
    return phi_rad / math.pi


CONVERSION_PAIRS = [
    (constants.ghz_to_rad_per_s, rad_per_s_to_ghz),
    (constants.um2_to_m2, m2_to_um2),
    (constants.nm_to_m, m_to_nm),
    (constants.ghz_to_hz, hz_to_ghz),
    (constants.f_per_m2_to_ff_per_um2, ff_per_um2_to_f_per_m2),
    (constants.farad_to_femtofarad, femtofarad_to_farad),
    (constants.pi_units_to_rad, rad_to_pi_units),
]


@pytest.mark.parametrize("forward,back", CONVERSION_PAIRS)
def test_conversion_round_trips(forward, back):
    rng = np.random.default_rng(20)
    for value in rng.uniform(1e-6, 1e6, size=50):
        assert back(forward(value)) == pytest.approx(value, rel=1e-12, abs=0.0)
        assert forward(back(value)) == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("forward,value,expected", [
    (constants.ghz_to_rad_per_s, 4.0, 2.5132741228718345e10),
    (constants.um2_to_m2, 100.0, 1e-10),
    (constants.nm_to_m, 7.0, 7e-9),
    (constants.ghz_to_hz, 4.0, 4e9),
    (constants.f_per_m2_to_ff_per_um2, 5.06e-3, 5.06),
    (constants.farad_to_femtofarad, 5.63e-15, 5.63),
    (constants.pi_units_to_rad, 0.5, math.pi / 2.0),
])
def test_conversion_forward_values(forward, value, expected):
    assert forward(value) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_fermi_energy_zero():
    assert fermi_energy(0.0) == 0.0


def test_fermi_energy_two_millivolts():
    # e*V/2 with V = 2 mV is exactly e * 1e-3
    assert fermi_energy(2e-3) == pytest.approx(1.602176634e-22, rel=1e-12, abs=0.0)


def test_fermi_energy_odd():
    rng = np.random.default_rng(21)
    for v in rng.uniform(-1.0, 1.0, size=20):
        assert fermi_energy(-v) == -fermi_energy(v)


def test_require_positive_accepts_only_normal_floats():
    for good in (sys.float_info.min, 1.0, sys.float_info.max):
        constants.require_positive(good, "x")
    for bad in (5e-324, sys.float_info.min / 2.0, 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="out of range"):
            constants.require_positive(bad, "x")
