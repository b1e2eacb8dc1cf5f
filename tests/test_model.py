import numpy as np
import pytest

from nvmix.mixtures import inverse_gamma
from nvmix.model import NvmModel


@pytest.mark.parametrize(
    "loc,nu,match",
    [(None, [4.0, 5.0], "expects 1 parameter"),
     (None, [-1.0], "must be positive"),
     (None, [np.inf], "must be positive and finite"),
     ([np.nan, 0.0], [4.0], "location must be finite")],
    ids=["parameter-count", "negative-parameter", "infinite-parameter", "nan-location"])
def test_build_rejects_models_it_cannot_evaluate(loc, nu, match):
    # Each of these used to build and fail only at the first quantile
    # call, or return NaN densities or draws.
    with pytest.raises(ValueError, match=match):
        NvmModel.build(loc, np.eye(2), inverse_gamma(), nu)
