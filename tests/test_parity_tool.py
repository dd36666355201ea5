"""tools/parity.py's --allow: a whole field, or one key of a report."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parent.parent / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

OLD = {"weight_mse": 2.0, "output_mse": 4.0, "output_mse_no_adapter": 8.0}


def check(new: dict, *items: str) -> bool:
    parts = parity.differences("error_report", new, OLD)
    return parity.within_allow("error_report", parts, parity.parse_allow(list(items)))


class TestAllow:
    def test_parse_fields_and_report_keys(self):
        assert parity.parse_allow(["layer_output=1e-9", "error_report.output_mse=1e-12"]) == {
            "layer_output": 1e-9, "error_report.output_mse": 1e-12}

    @pytest.mark.parametrize("item", ["report=1", "artifact.sha256=1", "layer_output.x=1", "error_report.=1"])
    def test_refuses_what_names_no_field_or_report_key(self, item):
        with pytest.raises(SystemExit):
            parity.parse_allow([item])

    def test_a_key_allows_only_itself(self):
        moved = dict(OLD, output_mse=4.0 * (1 + 1e-14))
        assert parity.differences("error_report", moved, OLD) == {"output_mse": pytest.approx(1e-14)}
        assert check(moved, "error_report.output_mse=1e-12")
        assert not check(moved, "error_report.output_mse=1e-15")
        assert not check(moved, "error_report.output_mse_no_adapter=1e-12")
        both = dict(moved, weight_mse=2.0 * (1 + 1e-14))
        assert not check(both, "error_report.output_mse=1e-12")

    def test_a_bare_field_allows_every_key(self):
        both = dict(OLD, output_mse=4.0 * (1 + 1e-14), weight_mse=2.0 * (1 + 1e-14))
        assert check(both, "error_report=1e-12")
        assert not check(both, "weight_space_report=1e-12")

    def test_a_key_tolerance_takes_the_place_of_its_field(self):
        moved = dict(OLD, output_mse=4.0 * (1 + 1e-10))
        assert not check(moved, "error_report=1e-9", "error_report.output_mse=1e-12")
        assert check(moved, "error_report=1e-12", "error_report.output_mse=1e-9")

    def test_equal_and_unlike_values(self):
        assert parity.differences("error_report", dict(OLD), OLD) == {"": 0.0}
        assert parity.differences("error_report", "NonFinite: w", OLD) == {"": float("inf")}
        assert not check({"weight_mse": 2.0}, "error_report=1")
