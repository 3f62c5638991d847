import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import superrmatrix
import superrmatrix.rfactors
import superrmatrix.verify
from superrmatrix import (
    GradingVector,
    QContext,
    SuperRank,
    TruncatedSeries,
    VerifyConfig,
    build_rfactors,
    run_suite,
)
from superrmatrix.cli import main


def _fail(*args, **kwargs):
    raise AssertionError("no root-vector table may be built here")


def test_out_of_domain_rejected_before_tables(monkeypatch):
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    rank = SuperRank(2, 1)
    with pytest.raises(ValueError):
        build_rfactors(rank, QContext(q=1.1 + 0.2j), 1.4, 1.0, GradingVector.ones(rank))


def test_verify_default_32_passes():
    assert main(["verify", "--m", "3", "--n", "2"]) == 0


def test_closed_checks_build_no_table(monkeypatch):
    monkeypatch.setattr(superrmatrix.verify, "build_root_vectors", _fail)
    monkeypatch.setattr(superrmatrix.rfactors, "build_root_vectors", _fail)
    report = run_suite(VerifyConfig(rank=SuperRank(2, 1), checks=("ybe", "intertwining")))
    assert report.all_passed


def test_import_leaves_scipy_out():
    src = str(Path(superrmatrix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, superrmatrix; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_series_rejects_non_diagonal_matrix_coefficient():
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        TruncatedSeries([np.eye(2), nilpotent])
