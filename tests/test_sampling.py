import numpy as np

from nvmix.mixtures import inverse_gamma
from nvmix.model import NvmModel
from nvmix.sampling import rnvmix

# Inversion-Sobol' draws recorded before the Sobol' stream became a bank
# of B randomizations; pinned exactly.  seed=None is the unshifted
# sequence: its second point is 1/2 in every coordinate, so z = 0 and the
# draw is the location.
GOLDEN = {
    7: [[2.2717881804571167, 0.5119873331183267, 4.751779826664859],
        [-0.7229152333959672, -2.1898048897342344, 0.2703519286310261],
        [2.299887324857939, 0.3717557665733884, 0.910909144865012],
        [0.35133143588052107, -1.3306387542130036, -1.1882522627601537]],
    None: [[-1.286145719756398, -2.922679980370538, -1.3505760402734879],
           [1.0, -1.0, 0.5],
           [-0.5003901811003897, -2.2618487697510528, -0.7145271826775075],
           [1.815112455819249, -0.3144792184457388, 1.1598125254361809]],
}


def golden_model():
    S = np.array([[2.0, 0.3, -0.4], [0.3, 1.0, 0.2], [-0.4, 0.2, 1.5]])
    return NvmModel.build([1.0, -1.0, 0.5], S, inverse_gamma(), [3.0])


def test_inversion_sobol_golden_values():
    for seed, want in GOLDEN.items():
        got = rnvmix(4, golden_model(), seed=seed, method="inversion-sobol")
        assert np.array_equal(got, np.array(want)), seed

