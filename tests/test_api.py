import pytest

import simcol
import simcol.coupling

# the single-site coupling path and the coupled-step samplers: Glauber's
# drift is flip_exact_drift at FlipParams.glauber()
DELETED = ("glauber_exact_drift", "coupled_flip_step", "coupled_glauber_step",
           "glauber_partner_color")


def test_step_functions_are_not_exported():
    # run_chain is the package's chain loop; flip_step stays in dynamics
    # only as the single-step reference the tests compare it against
    for name in ("flip_step", "glauber_step"):
        assert name not in simcol.__all__
        assert not hasattr(simcol, name)


def test_every_exported_name_resolves():
    assert len(simcol.__all__) == len(set(simcol.__all__))
    for name in simcol.__all__:
        assert hasattr(simcol, name), name


@pytest.mark.parametrize("module", [simcol, simcol.coupling], ids=["simcol", "coupling"])
@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_stay_gone(module, name):
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())
