"""One set of validators: every argument fault goes through l2mech._checks."""

from pathlib import Path

import l2mech


def test_value_errors_are_raised_only_by_checks():
    # a module that raises its own ValueError re-states a check that
    # _checks.require makes, and reports one fault where require reports all
    package = Path(l2mech.__file__).parent
    raises = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != "_checks.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "raise ValueError(" in line
    ]
    assert raises == []


def test_scalars_are_checked_as_one_number():
    # an array where one epsilon, delta, sigma, scale, tol or sensitivity
    # belongs is refused by name at each entry, before any stream advances
    import re

    import numpy as np
    import pytest

    from l2mech.calibrate import (
        CalibrationResult,
        PrivacyParams,
        calibrate_gaussian,
        calibrate_l2,
        gaussian_dp_lhs,
        laplace_sigma,
    )
    from l2mech.capgeom import LossGeometry, radial_cdf
    from l2mech.errormodel import mse_gaussian, mse_laplace, mse_lp_mechanism
    from l2mech.lossbounds import check_approx_dp
    from l2mech.mcverify import empirical_lhs, empirical_min_sigma
    from l2mech.sampler import (
        RngState,
        sample_gaussian,
        sample_l2,
        sample_l2_parallel,
        sample_laplace,
    )

    two = np.array([0.5, 0.6])
    pp = PrivacyParams(1.0, 1e-2)
    streams = [RngState(3, i) for i in range(4)]
    states = [repr(rng.generator.bit_generator.state) for rng in streams]
    rng, worker, manager = streams[0], streams[1], streams[2]
    calls = {
        "epsilon": [lambda: PrivacyParams(two, 1e-5), lambda: gaussian_dp_lhs(1.0, two),
                    lambda: LossGeometry(2, 0.5, two), lambda: empirical_lhs(2, 0.5, two, 2, rng)],
        "delta": [lambda: PrivacyParams(1.0, np.array([1e-5, 1e-6]))],
        "sigma": [lambda: check_approx_dp(3, two, pp), lambda: check_approx_dp(2, two, pp),
                  lambda: CalibrationResult("l2", two, 2.0, 1, 1e-3),
                  lambda: gaussian_dp_lhs(two, 1.0), lambda: LossGeometry(2, two, 1.0),
                  lambda: radial_cdf(2, two, 1.0), lambda: mse_lp_mechanism(2, 2.0, two),
                  lambda: mse_gaussian(2, two), lambda: sample_l2([0.0], two, rng),
                  lambda: sample_gaussian([0.0], two, rng, size=2),
                  lambda: sample_l2_parallel([0.0], two, [worker], manager),
                  lambda: empirical_lhs(2, two, 1.0, 2, rng)],
        "scale": [lambda: sample_laplace([0.0], two, rng), lambda: mse_laplace(2, two)],
        "p": [lambda: mse_lp_mechanism(2, two, 1.0)],
        "tol": [lambda: calibrate_l2(3, pp, tol=two), lambda: calibrate_gaussian(pp, two),
                lambda: empirical_min_sigma(2, pp, 10**4, two, rng)],
        "sensitivity": [lambda: calibrate_l2(3, pp, sensitivity=two),
                        lambda: laplace_sigma(3, pp, sensitivity=two)],
    }
    for name, entries in calls.items():
        message = f"{name} must be one number, not an array of shape (2,)"
        for call in entries:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()
    assert [repr(rng.generator.bit_generator.state) for rng in streams] == states
