"""The public surface, pinned: every name in l2mech.__all__ and its signature.

A new knob, a changed default or a new field shows up here as a test
edit.  Signatures are compared as inspect renders them; the package's
modules use postponed annotations, so types read as strings.
"""

import dataclasses
import inspect
import subprocess
import sys
from collections import Counter

import l2mech

SUBMODULES = "calibrate capgeom errormodel lossbounds mcverify sampler specfun".split()

SIGNATURES = {
    "calibrate_gaussian": "(params: 'PrivacyParams', tol: 'float' = 0.001, "
    "sensitivity: 'float' = 1.0) -> 'CalibrationResult'",
    "calibrate_l2": "(dim: 'int', params: 'PrivacyParams', n_r: 'int' = 1000, "
    "n_R: 'int' = 1000, tol: 'float' = 0.001, sensitivity: 'float' = 1.0) "
    "-> 'CalibrationResult'",
    "cap_fraction": "(dim: 'int', r, h)",
    "check_approx_dp": "(dim: 'int', sigma: 'float', eps_delta: 'PrivacyParams', "
    "n_r: 'int' = 1000, n_R: 'int' = 1000) -> 'BoundReport'",
    "comparison_table": "(params: 'PrivacyParams', d_max: 'int', n_r: 'int' = 1000, "
    "n_R: 'int' = 1000, tol: 'float' = 0.001) -> 'list[ErrorRow]'",
    "draw_batch": "(mechanism: 'str', dim: 'int', sigma: 'float', count: 'int', "
    "seed: 'int', stream_id: 'int' = 0) -> 'SampleBatch'",
    "empirical_lhs": "(dim: 'int', sigma: 'float', epsilon: 'float', n: 'int', "
    "rng: 'RngState') -> 'EmpiricalPrivacyEstimate'",
    "empirical_min_sigma": "(dim: 'int', params: 'PrivacyParams', n: 'int', "
    "tol: 'float', rng: 'RngState') -> 'float'",
    "gaussian_dp_lhs": "(sigma: 'float', epsilon: 'float') -> 'float'",
    "height_H": "(geom: 'LossGeometry', R)",
    "height_h": "(geom: 'LossGeometry', r)",
    "inv_reg_lower_gamma": "(a: 'float', p: 'float') -> 'float'",
    "laplace_sigma": "(dim: 'int', params: 'PrivacyParams', "
    "sensitivity: 'float' = 1.0) -> 'CalibrationResult'",
    "laplace_sigma_lower_bound": "(dim: 'int', params: 'PrivacyParams') -> 'float'",
    "mse_gaussian": "(dim: 'int', sigma: 'float') -> 'float'",
    "mse_laplace": "(dim: 'int', scale: 'float') -> 'float'",
    "mse_lp_mechanism": "(dim: 'int', p: 'float', sigma: 'float') -> 'float'",
    "radial_cdf": "(dim: 'int', sigma: 'float', r)",
    "reg_inc_beta": "(x, a, b)",
    "reg_inc_beta_result": "(x, a, b) -> 'SpecFunResult'",
    "reg_lower_gamma": "(a, x)",
    "reg_lower_gamma_result": "(a, x) -> 'SpecFunResult'",
    "reg_upper_gamma": "(a, x)",
    "sample_gaussian": "(center, sigma: 'float', rng: 'RngState', size=None)",
    "sample_l2": "(center, sigma: 'float', rng: 'RngState', size=None)",
    "sample_l2_parallel": "(center, sigma: 'float', worker_rngs: 'list[RngState]', "
    "manager_rng: 'RngState')",
    "sample_laplace": "(center, scale: 'float', rng: 'RngState', size=None)",
    "sample_unit_ball": "(dim: 'int', rng: 'RngState', size=None)",
    "std_normal_cdf": "(t: 'float') -> 'float'",
    "table_to_csv": "(rows: 'list[ErrorRow]') -> 'str'",
    "table_to_json": "(rows: 'list[ErrorRow]') -> 'str'",
}

FIELDS = {
    "BoundReport": "term1_upper term2_lower lhs_upper satisfies_dp n_r n_R r_star "
    "branch lhs_slope",
    "CalibrationResult": "mechanism sigma pure_epsilon search_iterations tolerance "
    "hit_bracket_floor",
    "EmpiricalPrivacyEstimate": "dim sigma epsilon lhs_estimate c1 c2 n std_error "
    "seed stream_id",
    "ErrorRow": "dim mechanism sigma mse normalized_mse",
    "LossGeometry": "dim sigma epsilon",
    "ParallelTrace": "worker_log_uniforms worker_gauss manager_uniform_y "
    "manager_log_uniform radius sum_squares",
    "PrivacyParams": "epsilon delta",
    "RngState": "seed stream_id _gen",
    "SampleBatch": "dim count values mechanism sigma seed stream_id",
    "SpecFunResult": "value converged iterations",
}

# the rest of __all__: exceptions with their base, and one constant
OTHERS = {
    "ConvergenceError": RuntimeError,
    "MECHANISMS": ("l2", "laplace", "gaussian"),
}


def test_all_is_exactly_the_pinned_names():
    pinned = set(SIGNATURES) | set(FIELDS) | set(OTHERS)
    assert sorted(l2mech.__all__) == sorted(pinned)


def test_function_signatures():
    got = {name: str(inspect.signature(getattr(l2mech, name))) for name in SIGNATURES}
    assert got == SIGNATURES


def test_dataclass_fields():
    got = {
        name: " ".join(f.name for f in dataclasses.fields(getattr(l2mech, name)))
        for name in FIELDS
    }
    assert got == FIELDS


def test_exceptions_and_constants():
    for name, want in OTHERS.items():
        got = getattr(l2mech, name)
        if isinstance(want, type):
            assert got.__bases__ == (want,), name
        else:
            assert got == want, name


def test_each_public_name_is_declared_in_one_submodule():
    declared = Counter(
        name for module in SUBMODULES for name in getattr(l2mech, module).__all__
    )
    assert [name for name, count in declared.items() if count > 1] == []
    assert sorted(l2mech.__all__) == sorted(declared)


def test_import_loads_no_test_only_library(child_env):
    # pyproject.toml declares numpy alone, so the package and its CLI
    # import in a fresh process without scipy, mpmath or hypothesis
    code = (
        "import sys, l2mech, l2mech.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules}"
        " & {'scipy', 'mpmath', 'hypothesis'}))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
