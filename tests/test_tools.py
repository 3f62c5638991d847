"""tools/same_numbers.py, run in process on one small point and one refusal."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from superrmatrix import GradingVector, QContext, SuperRank, build_rfactors
from superrmatrix.cartanweyl import u_matrices
from superrmatrix.scalars import DegenerateQError

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_numbers.py"


@pytest.fixture(scope="module")
def same_numbers():
    spec = importlib.util.spec_from_file_location("same_numbers", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_point_dump_has_the_level_q_numbers(same_numbers):
    rank, q = SuperRank(2, 1), same_numbers.QS[0]
    arrays = dict(same_numbers._point_arrays(rank, GradingVector.ones(rank), q,
                                             *same_numbers.ZETAS[0]))
    assert np.array_equal(arrays["u_matrices"], u_matrices(rank, QContext(q=q), np.arange(1, 41)))
    assert arrays["f_m"].shape == (2,)
    assert "build_rfactors/rho" in arrays and "run_suite/ybe/residual" in arrays


def test_refusal_points_include_a_vanishing_level_divisor(same_numbers):
    (m, n), q = same_numbers.REFUSALS[0]
    with pytest.raises(DegenerateQError, match=r"\[2\]_\(q\*\*30\) vanishes"):
        build_rfactors(SuperRank(m, n), QContext(q=q), *same_numbers.ZETAS[0])
