"""The value types of the closed-form path behave as frozen dataclasses did.

SystemParams, RateBreakdown and LinearizationSpectrum keep their constructors, repr, equality and hashing, refuse assignment and
deletion, and survive pickle and copy round-trips.
"""

import copy
import pickle

import numpy as np
import pytest

from kramers_gl.instanton import BoundaryCondition, SystemParams
from kramers_gl.rates import RateBreakdown, prefactor_corrected
from kramers_gl.spectrum import LinearizationSpectrum

NEU = BoundaryCondition.NEUMANN
PER = BoundaryCondition.PERIODIC

BREAKDOWN_ARGS = ("uniform_saddle", 0.5, 1.0, 1.0, 1.0, 0.0, 0.1)


def _round_trips(value):
    return [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ] + [copy.copy(value), copy.deepcopy(value)]


def _records():
    spectrum = LinearizationSpectrum([-1.0, 0.5, 2.0], [1, 2, 2])
    return {
        "SystemParams": (SystemParams(2.0, 0.1, "neumann"), "L"),
        "RateBreakdown": (prefactor_corrected(4.0, 0.01, NEU), "rate"),
        "LinearizationSpectrum": (spectrum, "eigenvalues"),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_fields_can_be_neither_assigned_nor_deleted(name):
    value, field = _records()[name]
    before = repr(value)
    with pytest.raises(AttributeError, match=field):
        setattr(value, field, 1.0)
    with pytest.raises(AttributeError, match=field):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1.0
    assert repr(value) == before


@pytest.mark.parametrize("name", ["SystemParams", "RateBreakdown"])
def test_scalar_records_round_trip_equal_with_equal_hashes(name):
    value, _ = _records()[name]
    for twin in _round_trips(value):
        assert type(twin) is type(value)
        assert twin == value
        assert not twin != value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("name", ["LinearizationSpectrum"])
def test_array_records_round_trip_field_by_field(name):
    value, _ = _records()[name]
    for twin in _round_trips(value):
        assert type(twin) is type(value)
        assert repr(twin) == repr(value)
        for attr in ("eigenvalues", "multiplicities"):
            np.testing.assert_array_equal(getattr(twin, attr), getattr(value, attr))
    assert value == value  # identical arrays compare by identity first


def test_system_params_equality_hash_and_repr():
    p = SystemParams(L=2.0, eps=0.1, bc="neumann")
    assert p == SystemParams(2.0, 0.1, NEU)
    assert p != SystemParams(2.0, 0.2, NEU)
    assert p != (2.0, 0.1, NEU)
    assert hash(p) == hash((2.0, 0.1, NEU))
    assert len({p, SystemParams(2.0, 0.1, NEU), SystemParams(3.0, 0.1, NEU)}) == 2
    assert repr(p) == "SystemParams(L=2.0, eps=0.1, bc=<BoundaryCondition.NEUMANN: 'neumann'>)"


def test_rate_breakdown_positional_defaults_and_repr():
    rb = RateBreakdown(*BREAKDOWN_ARGS)
    assert rb.m is None
    assert rb == RateBreakdown(*BREAKDOWN_ARGS, m=None)
    assert rb != RateBreakdown(*BREAKDOWN_ARGS, m=0.5)
    assert hash(rb) == hash(RateBreakdown(*BREAKDOWN_ARGS))
    assert repr(rb) == (
        "RateBreakdown(regime='uniform_saddle', deltaW=0.5, gamma0_classical=1.0, "
        "correction_factor=1.0, gamma0_corrected=1.0, eps_exponent=0.0, rate=0.1, "
        "m=None, log_rate=None)"
    )


def test_array_record_reprs_list_their_fields():
    spec, _ = _records()["LinearizationSpectrum"]
    assert repr(spec) == (
        f"LinearizationSpectrum(eigenvalues={spec.eigenvalues!r}, "
        f"multiplicities={spec.multiplicities!r})"
    )

