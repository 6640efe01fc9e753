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
    # an array, None or a string where one epsilon, delta, sigma, scale,
    # tol or sensitivity belongs is refused by name at each entry, in
    # require's one ValueError, before any stream advances
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

    pp = PrivacyParams(1.0, 1e-2)
    streams = [RngState(3, i) for i in range(4)]
    states = [repr(rng.generator.bit_generator.state) for rng in streams]
    rng, worker, manager = streams[0], streams[1], streams[2]
    calls = {
        "epsilon": [lambda v: PrivacyParams(v, 1e-5), lambda v: gaussian_dp_lhs(1.0, v),
                    lambda v: LossGeometry(2, 0.5, v), lambda v: empirical_lhs(2, 0.5, v, 2, rng)],
        "delta": [lambda v: PrivacyParams(1.0, v)],
        "sigma": [lambda v: check_approx_dp(3, v, pp), lambda v: check_approx_dp(2, v, pp),
                  lambda v: CalibrationResult("l2", v, 2.0, 1, 1e-3),
                  lambda v: gaussian_dp_lhs(v, 1.0), lambda v: LossGeometry(2, v, 1.0),
                  lambda v: radial_cdf(2, v, 1.0), lambda v: mse_lp_mechanism(2, 2.0, v),
                  lambda v: mse_gaussian(2, v), lambda v: sample_l2([0.0], v, rng),
                  lambda v: sample_gaussian([0.0], v, rng, size=2),
                  lambda v: sample_l2_parallel([0.0], v, [worker], manager),
                  lambda v: empirical_lhs(2, v, 1.0, 2, rng)],
        "scale": [lambda v: sample_laplace([0.0], v, rng), lambda v: mse_laplace(2, v)],
        "p": [lambda v: mse_lp_mechanism(2, v, 1.0)],
        "tol": [lambda v: calibrate_l2(3, pp, tol=v), lambda v: calibrate_gaussian(pp, v),
                lambda v: empirical_min_sigma(2, pp, 10**4, v, rng)],
        "sensitivity": [lambda v: calibrate_l2(3, pp, sensitivity=v),
                        lambda v: laplace_sigma(3, pp, sensitivity=v)],
    }
    values = (
        (np.array([0.5, 0.6]), "one number, not an array of shape (2,)"),
        (None, "one real number, not NoneType"),
        ("0.5", "one real number, not str"),
    )
    for name, entries in calls.items():
        for value, fault in values:
            message = f"^{re.escape(f'{name} must be {fault}')}$"
            for call in entries:
                with pytest.raises(ValueError, match=message):
                    call(value)
    assert [repr(rng.generator.bit_generator.state) for rng in streams] == states
