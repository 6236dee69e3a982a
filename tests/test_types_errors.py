"""Tests for shared types and the exception hierarchy."""

import pytest

from repro import errors
from repro.types import COORDINATOR_ID, Decision, ProcessStatus, Vote


class TestVote:
    def test_identification_with_bits(self):
        assert int(Vote.ABORT) == 0
        assert int(Vote.COMMIT) == 1

    def test_from_bit(self):
        assert Vote.from_bit(0) is Vote.ABORT
        assert Vote.from_bit(1) is Vote.COMMIT

    def test_from_bit_validation(self):
        with pytest.raises(ValueError):
            Vote.from_bit(2)


class TestDecision:
    def test_identification_with_bits(self):
        assert int(Decision.ABORT) == 0
        assert int(Decision.COMMIT) == 1

    def test_from_bit(self):
        assert Decision.from_bit(1) is Decision.COMMIT

    def test_from_bit_validation(self):
        with pytest.raises(ValueError):
            Decision.from_bit(-1)


class TestConstants:
    def test_coordinator_id_is_zero(self):
        assert COORDINATOR_ID == 0

    def test_process_status_members(self):
        assert {s.name for s in ProcessStatus} == {
            "RUNNING",
            "RETURNED",
            "CRASHED",
        }


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        leaves = [
            errors.SchedulingError,
            errors.TapeExhaustedError,
            errors.AdmissibilityError,
            errors.ProtocolViolation,
            errors.ConfigurationError,
            errors.WalError,
            errors.InsufficientDataError,
        ]
        for leaf in leaves:
            assert issubclass(leaf, errors.ReproError)

    def test_layer_groupings(self):
        assert issubclass(errors.SchedulingError, errors.SimulationError)
        assert issubclass(errors.ConfigurationError, errors.ProtocolError)
        assert issubclass(errors.WalError, errors.ServiceError)
        assert issubclass(errors.InsufficientDataError, errors.AnalysisError)

    def test_catchable_as_family(self):
        with pytest.raises(errors.ReproError):
            raise errors.SchedulingError("boom")


class TestPackageSurface:
    def test_version_exported(self):
        import repro

        assert repro.__version__

    def test_public_names_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
