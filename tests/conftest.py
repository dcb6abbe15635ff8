import pytest
from hypothesis import settings

from quasicode import HammingCode, resolve_preset

# Property tests draw the same examples on every run, and a loaded host cannot fail
# them on hypothesis's per-example deadline.
settings.register_profile("quasicode", derandomize=True, deadline=None)
settings.load_profile("quasicode")


@pytest.fixture(scope="session")
def f2():
    return resolve_preset("f2")


@pytest.fixture(scope="session")
def f3():
    return resolve_preset("f3")


@pytest.fixture(scope="session")
def f5():
    return resolve_preset("f5")


@pytest.fixture(scope="session")
def gf4():
    return resolve_preset("gf4")


@pytest.fixture(scope="session")
def gf9():
    return resolve_preset("gf9")


@pytest.fixture(scope="session")
def rationals():
    return resolve_preset("rationals")


@pytest.fixture(scope="session")
def quaternions():
    return resolve_preset("quaternions")


@pytest.fixture(scope="session")
def octonions():
    return resolve_preset("octonions")


@pytest.fixture(scope="session")
def gf9_isotope():
    return resolve_preset("gf9-isotope")


@pytest.fixture(scope="session")
def code_f2_m3(f2):
    return HammingCode(f2, 3)


@pytest.fixture(scope="session")
def code_f3_m2(f3):
    return HammingCode(f3, 2)


@pytest.fixture(scope="session")
def code_quat_m2(quaternions):
    return HammingCode(quaternions, 2)
