"""Tests for the storage-precision config (repro.backends)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    DEFAULT_PRECISION,
    PRECISIONS,
    Precision,
    resolve_precision,
)


class TestPrecision:
    def test_none_resolves_to_the_default(self):
        assert resolve_precision(None) is DEFAULT_PRECISION
        assert DEFAULT_PRECISION.is_default
        assert DEFAULT_PRECISION.float_dtype == np.float64
        assert DEFAULT_PRECISION.int_dtype == np.int64

    def test_float32_resolves_to_half_width_storage(self):
        precision = resolve_precision("float32")
        assert not precision.is_default
        assert precision.float_dtype == np.float32
        assert precision.int_dtype == np.int32

    def test_precision_instances_pass_through(self):
        precision = PRECISIONS["float32"]
        assert resolve_precision(precision) is precision

    def test_unknown_name_rejected_with_the_alternatives(self):
        with pytest.raises(ValueError, match="float16.*expected one of"):
            resolve_precision("float16")

    def test_non_precision_type_rejected(self):
        with pytest.raises(TypeError, match="int"):
            resolve_precision(32)

    def test_check_count_value_guards_the_int32_limit(self):
        precision = resolve_precision("float32")
        limit = np.iinfo(np.int32).max
        assert precision.check_count_value(limit, "network size") == limit
        with pytest.raises(OverflowError, match="network size.*int32"):
            precision.check_count_value(limit + 1, "network size")

    def test_default_precision_counts_past_int32(self):
        value = int(np.iinfo(np.int32).max) + 1
        assert DEFAULT_PRECISION.check_count_value(value, "N") == value

    def test_precision_registry_is_consistent(self):
        for name, precision in PRECISIONS.items():
            assert isinstance(precision, Precision)
            assert precision.name == name
