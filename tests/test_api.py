import pytest

import simcol
import simcol.coupling

# the single-site coupling path and the coupled-step samplers: Glauber's
# drift is flip_exact_drift at FlipParams.glauber()
DELETED = ("glauber_exact_drift", "coupled_flip_step", "coupled_glauber_step",
           "glauber_partner_color")


def test_every_exported_name_resolves():
    assert len(simcol.__all__) == len(set(simcol.__all__))
    for name in simcol.__all__:
        assert hasattr(simcol, name), name


@pytest.mark.parametrize("module", [simcol, simcol.coupling], ids=["simcol", "coupling"])
@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_stay_gone(module, name):
    assert not hasattr(module, name)
    assert name not in getattr(module, "__all__", ())
