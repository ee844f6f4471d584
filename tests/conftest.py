"""Shared fixtures.

Many tests set mpmath's global precision; the autouse fixture below puts it
back after each test, so no test sees the precision another one left."""

import pytest
from mpmath import mp


@pytest.fixture(autouse=True)
def restore_mp_precision():
    dps, prec = mp.dps, mp.prec
    yield
    mp.dps = dps
    mp.prec = prec
