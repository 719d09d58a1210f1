"""The package namespace, and which routes load numpy.

The closed-form modules are pure Python; numpy comes in only with the dense
layer (``gaussian``) and the sampler (``mc``), which the package resolves on
first use.  Import checks run in a fresh interpreter, since this one has
already imported numpy.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cvteleport as cv

SRC = Path(__file__).resolve().parent.parent / "src"

# The package's public names, by the module each is read from.
EXPORTS = {
    "gaussian": [
        "CovarianceMatrix", "ResourceSpec", "block_diag_cm", "build_resource", "omega",
        "partial_transpose", "purity", "squeezed_thermal_cm", "symplectic_eigenvalues",
        "vacuum_cm"],
    "structured": [
        "IsoEntangledClass", "OptimizationResult", "ResourceSpec", "WorstCase",
        "fidelity_from_variances", "input_variances", "network_variances"],
    "entanglement": [
        "EntanglementReport", "contangle_from_ET", "entanglement_of_teleportation",
        "entanglement_report", "eof_localizable", "eof_symmetric", "eta_closed_form",
        "eta_generalized", "eta_one_vs_rest", "eta_two_mode", "is_entangled"],
    "teleport": ["ProtocolParams", "TeleportOutcome", "fidelity_network", "teleported_variances"],
    "optimize": [
        "d_N_opt", "d_unbiased", "g_N_opt", "golden_section", "numerical_optimum",
        "optimal_fidelity", "worst_case"],
    "localize": [
        "ConditionalState", "homodyne_condition", "localizable_eta", "localizable_report",
        "localize"],
    "mc": ["McConfig", "McEstimate", "simulate", "variance_of_form"],
}


def fresh(code: str) -> str:
    """Run code in a new interpreter with the package on its path; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNamespace:
    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_each_name_is_its_modules_object(self, module):
        home = importlib.import_module(f"cvteleport.{module}")
        for name in EXPORTS[module]:
            assert getattr(cv, name) is getattr(home, name), name

    def test_localize_stays_the_function_after_importing_its_module(self):
        import cvteleport.localize

        assert cv.localize is sys.modules["cvteleport.localize"].localize

    def test_resource_spec_is_reexported_by_gaussian(self):
        assert cv.ResourceSpec is cv.gaussian.ResourceSpec

    def test_lazy_names_follow_a_patch(self, monkeypatch):
        original = cv.build_resource
        patched = object()
        monkeypatch.setattr(cv.gaussian, "build_resource", patched)
        assert cv.build_resource is patched
        monkeypatch.undo()
        assert cv.build_resource is original

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cv.no_such_name

    @pytest.mark.parametrize("name", ["SymplecticTransform", "apply", "beam_splitter",
                                      "n_splitter", "squeezer"])
    def test_removed_transform_names_are_gone(self, name):
        """The 2N x 2N transforms live in ``tests/oracles.py``, not in the package."""
        with pytest.raises(AttributeError, match=name):
            getattr(cv, name)
        assert not hasattr(cv.gaussian, name)

    def test_submodules_resolve_in_a_fresh_interpreter(self):
        out = fresh("""
            import cvteleport as cv
            print(cv.gaussian.__name__, cv.mc.__name__)
        """)
        assert out.split() == ["cvteleport.gaussian", "cvteleport.mc"]


class TestNumpyOnlyOnDenseRoutes:
    def test_closed_form_commands_import_no_numpy(self):
        out = fresh("""
            import sys
            from cvteleport import cli

            assert "numpy" not in sys.modules, "import"
            for argv in (["fidelity", "--N", "3", "--rbar", "0.5"],
                         ["entanglement", "--N", "3", "--rbar", "0.5"],
                         ["localize", "--N", "4", "--rbar", "0.75"],
                         ["optimize", "--N", "5", "--rbar", "1"],
                         ["optimize", "--N", "5", "--rbar", "1", "--method", "numerical"],
                         ["sweep", "--steps", "5"],
                         ["fidelity", "--N", "120", "--rbar", "2.5", "--output", "json"]):
                assert cli.main(argv) == 0, argv
                assert "numpy" not in sys.modules, argv
            print("ok")
        """)
        assert out.splitlines()[-1] == "ok"

    def test_verify_imports_numpy(self):
        out = fresh("""
            import sys
            from cvteleport import cli

            cli.main(["verify", "--samples", "1600"])
            print("numpy" in sys.modules)
        """)
        assert out.splitlines()[-1] == "True"

    def test_sampler_needs_no_dense_layer(self):
        out = fresh("""
            import sys
            import numpy as np
            import cvteleport.mc as mc
            from cvteleport.structured import ResourceSpec

            spec = ResourceSpec(5, 1.2, 1.0, 0.6, 0.1)
            mc.simulate(mc.McConfig(samples=1600, seed=0, spec=spec))
            mc.variance_of_form(np.ones(10), spec, 1600, 0)
            print("cvteleport.gaussian" in sys.modules)
        """)
        assert out.splitlines()[-1] == "False"

    def test_dense_api_imports_numpy(self):
        out = fresh("""
            import sys
            import cvteleport as cv

            before = "numpy" in sys.modules
            cv.build_resource(cv.ResourceSpec(3, 1.0, 1.0, 0.5))
            print(before, "numpy" in sys.modules)
        """)
        assert out.split() == ["False", "True"]
