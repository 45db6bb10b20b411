"""Out-of-range arguments raise the package's typed InvalidInput, a
ReflectWalkError that is also a ValueError."""

import numpy as np
import pytest

from reflectwalk import InvalidInput, ReflectWalkError, centered_constant, law_from_masses, ladder_laws
from reflectwalk.asymptotics import predict, tilting_identity_check
from reflectwalk.chain import step_row
from reflectwalk.laws import mgf_derivative
from reflectwalk.philox import uniforms
from reflectwalk.reflection import r_row
from reflectwalk.wiener_hopf import factorize_at, roots_z_pm

LAW_A = law_from_masses({-1: 1 / 3, 0: 1 / 3, 1: 1 / 3})
LAW_B = law_from_masses({-1: 0.2, 0: 0.3, 1: 0.5})

SITES = {
    "factorize_at s = 0": lambda: factorize_at(LAW_A, 0.0),
    "factorize_at s > 1": lambda: factorize_at(LAW_A, 1.5),
    "roots_z_pm s = 1": lambda: roots_z_pm(LAW_A, 1.0),
    "step_row x < 0": lambda: step_row(LAW_A, -1),
    "r_row past the depth": lambda: r_row(ladder_laws(LAW_A, depth=3), 4),
    "r_row x < 0": lambda: r_row(ladder_laws(LAW_A), -1),
    "predict n < 1": lambda: predict(centered_constant(LAW_A, 0), 0),
    "tilting_identity_check n > 8": lambda: tilting_identity_check(LAW_B, 9),
    "tilting_identity_check n < 0": lambda: tilting_identity_check(LAW_B, -1),
    "mgf_derivative order 3": lambda: mgf_derivative(LAW_A, 1.0, order=3),
    "uniforms first_draw unaligned": lambda: uniforms(1, np.arange(2), 3, 4),
}


@pytest.mark.parametrize("site", SITES)
def test_out_of_range_input_is_typed(site):
    with pytest.raises(ReflectWalkError) as info:
        SITES[site]()
    assert isinstance(info.value, InvalidInput) and isinstance(info.value, ValueError)
