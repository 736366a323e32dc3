import numpy as np
import pytest
from hypothesis import settings

from wlvmser.records import TypeVariation, VariationModel
from wlvmser.sram import MemoryArray

# every run draws the same examples, so a test fails on the code, never on the draw;
# each test keeps its own max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def single_type_model(name="SS", mu_vwlmin=791.0, sigma_vwlmin=44.0,
                      mu_hold=450.0, sigma_hold=30.0,
                      mu_read=650.0, sigma_read=30.0, sigma_part=8.0):
    return VariationModel(
        types={name: TypeVariation(mu_vwlmin, sigma_vwlmin, mu_hold,
                                   sigma_hold, mu_read, sigma_read)},
        sigma_part=sigma_part,
    )


def manual_array(v_wl_min, v_dd_min_hold=None, v_dd_min_read=None,
                 v_dd=1200, cell_type="SS"):
    """Hand-built block for enumeration-style tests."""
    v_wl_min = np.asarray(v_wl_min, dtype=np.int64)
    n = v_wl_min.size
    if v_dd_min_hold is None:
        v_dd_min_hold = np.full(n, 450, dtype=np.int64)
    if v_dd_min_read is None:
        v_dd_min_read = np.full(n, 650, dtype=np.int64)
    hold = np.asarray(v_dd_min_hold, dtype=np.int64)
    read = np.asarray(v_dd_min_read, dtype=np.int64)
    return MemoryArray(
        part_id="manual",
        cell_type=cell_type,
        v_wl_min=v_wl_min,
        true_seu_rate=0.0,
        v_dd=v_dd,
        draw={"hold": hold, "read": read}.__getitem__,
    )


@pytest.fixture
def ss_model():
    return single_type_model()
