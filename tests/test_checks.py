"""One set of validators: every argument fault goes through l2mech._checks."""

import ast
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


def test_arguments_are_converted_only_after_their_checks():
    # np.asarray(<parameter>, dtype=...) above a function's last require
    # (or sampler._rows, which calls it) converts an argument before
    # _checks has accepted it, so numpy, not require, meets a bad one
    package = Path(l2mech.__file__).parent
    early = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            params = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)]
            checked = max(
                (call.lineno for call in calls
                 if isinstance(call.func, ast.Name) and call.func.id in ("require", "_rows")),
                default=0,
            )
            early += [
                f"{path.stem}.{fn.name}:{call.args[0].id}"
                for call in calls
                if ast.unparse(call.func) == "np.asarray"
                and call.args
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id in params
                and any(keyword.arg == "dtype" for keyword in call.keywords)
                and call.lineno < checked
            ]
    assert early == []


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
        "tolerance": [lambda v: CalibrationResult("l2", 1.0, 2.0, 1, v)],
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
    # an int beyond the float range, here or as a dim, is refused by its
    # own rule alone, before math.isfinite or float math meets it
    calls["dim"] = [lambda v: check_approx_dp(v, 0.5, pp), lambda v: calibrate_l2(v, pp),
                    lambda v: radial_cdf(v, 0.5, 1.0), lambda v: mse_gaussian(v, 1.0),
                    lambda v: laplace_sigma(v, pp)]
    for name, entries in calls.items():
        for call in entries:
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must [^;]*$") as excinfo:
                call(2**1100)
            assert excinfo.traceback[-1].name == "require"
    assert [repr(rng.generator.bit_generator.state) for rng in streams] == states


def test_arrays_are_checked_by_name():
    # a string, an object, a dict, a complex, a bool or a ragged list where
    # reals belong is refused by name in require's one ValueError, before
    # numpy converts it and before any stream advances
    import re

    import numpy as np
    import pytest

    from l2mech.capgeom import LossGeometry, cap_fraction, height_H, height_h, radial_cdf
    from l2mech.sampler import (
        RngState,
        SampleBatch,
        sample_gaussian,
        sample_l2,
        sample_l2_parallel,
        sample_laplace,
    )
    from l2mech.specfun import (
        reg_inc_beta,
        reg_inc_beta_result,
        reg_lower_gamma,
        reg_lower_gamma_result,
        reg_upper_gamma,
        std_normal_cdf,
    )

    geom = LossGeometry(2, 0.5, 1.0)
    streams = [RngState(3, i) for i in range(3)]
    states = [repr(rng.generator.bit_generator.state) for rng in streams]
    rng, worker, manager = streams
    calls = {
        "center": [lambda v: sample_l2(v, 1.0, rng), lambda v: sample_laplace(v, 1.0, rng),
                   lambda v: sample_gaussian(v, 1.0, rng),
                   lambda v: sample_l2_parallel(v, 1.0, [worker], manager)],
        "values": [lambda v: SampleBatch(1, 1, v, "l2", 1.0, 0)],
        "r": [lambda v: height_h(geom, v), lambda v: cap_fraction(3, v, 0.5),
              lambda v: radial_cdf(2, 0.5, v)],
        "R": [lambda v: height_H(geom, v)],
        "h": [lambda v: cap_fraction(3, 1.0, v)],
        "x": [lambda v: reg_lower_gamma_result(2.0, v), lambda v: reg_lower_gamma(2.0, v),
              lambda v: reg_upper_gamma(2.0, v),
              lambda v: reg_inc_beta_result(v, 2.0, 0.5), lambda v: reg_inc_beta(v, 2.0, 0.5)],
        "t": [std_normal_cdf],
    }
    values = (
        "abc", ["1", "2"], [object()], {"a": 1}, np.array([1j]), np.array([True]),
        [[0.5, 0.5], [0.5]],
    )
    for name, entries in calls.items():
        for value in values:
            for call in entries:
                with pytest.raises(ValueError, match=f"^{re.escape(name)} must ") as excinfo:
                    call(value)
                assert excinfo.type is ValueError and excinfo.traceback[-1].name == "require"
    assert [repr(rng.generator.bit_generator.state) for rng in streams] == states
