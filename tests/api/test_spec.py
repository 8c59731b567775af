"""Tests of the canonical operator-spec parsing (`repro.api.spec`)."""

import pytest

from repro.api.spec import OperatorSpec, parse_circuit_spec, parse_windows
from repro.circuits.adders import ADDER_GENERATORS


class TestParseCircuitSpec:
    @pytest.mark.parametrize(
        "name, architecture, width",
        [("rca8", "rca", 8), ("bka16", "bka", 16), ("ksa32", "ksa", 32), ("cska61", "cska", 61)],
    )
    def test_plain_adder_names(self, name, architecture, width):
        spec = parse_circuit_spec(name)
        assert spec == OperatorSpec(architecture, width)
        assert spec.name == name

    def test_speculative_names(self):
        spec = parse_circuit_spec("spa16w4")
        assert spec == OperatorSpec("spa", 16, 4)
        assert spec.name == "spa16w4"

    def test_case_and_whitespace_normalised(self):
        assert parse_circuit_spec(" RCA8 ") == OperatorSpec("rca", 8)
        assert parse_circuit_spec("SPA16W4") == OperatorSpec("spa", 16, 4)

    @pytest.mark.parametrize("name", ["spa16", "spa16w", "spaw4", "spa16w4x", "spaw"])
    def test_malformed_speculative_names_rejected(self, name):
        with pytest.raises(ValueError, match="spa<width>w<window>"):
            parse_circuit_spec(name)

    def test_window_must_fit_width(self):
        with pytest.raises(ValueError, match=r"window must lie within \(0, width\)"):
            parse_circuit_spec("spa8w8")
        with pytest.raises(ValueError, match="window"):
            parse_circuit_spec("spa8w0")

    @pytest.mark.parametrize("name", ["fancy99x", "rca", "8rca", "rca8.5", ""])
    def test_unparseable_names_rejected(self, name):
        with pytest.raises(ValueError):
            parse_circuit_spec(name)

    def test_every_registry_architecture_round_trips(self):
        for architecture in ADDER_GENERATORS:
            spec = parse_circuit_spec(f"{architecture}8")
            assert spec.architecture == architecture
            assert parse_circuit_spec(spec.name) == spec


class TestOperatorSpec:
    def test_build_plain_and_speculative(self):
        assert OperatorSpec("rca", 8).build().name == "rca8"
        assert OperatorSpec("spa", 16, 4).build().name == "spa16w4"

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="unknown adder architecture"):
            OperatorSpec("fancy", 8)

    def test_window_requires_speculative_architecture(self):
        with pytest.raises(ValueError, match="speculative candidates"):
            OperatorSpec("rca", 8, 4)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="width must be positive"):
            OperatorSpec("rca", 0)

    def test_result_must_fit_the_output_word(self):
        # Sum plus carry-out is width + 1 bits; the output word holds 62.
        assert OperatorSpec("rca", 61).width == 61
        assert OperatorSpec("spa", 61, 4).width == 61
        with pytest.raises(ValueError, match="rca62 has a 63-bit result"):
            OperatorSpec("rca", 62)
        with pytest.raises(ValueError, match="spa62w4 has a 63-bit result"):
            OperatorSpec("spa", 62, 4)
        with pytest.raises(ValueError, match="cska64 has a 65-bit result"):
            parse_circuit_spec("cska64")

    def test_json_round_trip(self):
        for spec in (OperatorSpec("rca", 8), OperatorSpec("spa", 16, 4)):
            assert OperatorSpec.from_json(spec.to_json()) == spec

    def test_is_the_single_source_for_design_space_candidates(self):
        # The explore layer's OperatorCandidate delegates its validation and
        # naming here: both views of the same coordinates must agree.
        from repro.explore.space import OperatorCandidate

        candidate = OperatorCandidate("spa", 16, 4)
        assert candidate.name == OperatorSpec("spa", 16, 4).name
        with pytest.raises(ValueError, match="window"):
            OperatorCandidate("spa", 8, 8)


class TestParseWindows:
    def test_mixed_tokens(self):
        assert parse_windows(["none", "4", "8"]) == (None, 4, 8)
        assert parse_windows(["off"]) == (None,)

    def test_integers_and_none_pass_through(self):
        assert parse_windows([None, 4]) == (None, 4)

    def test_bad_token_rejected(self):
        with pytest.raises(ValueError, match="invalid speculation window"):
            parse_windows(["sometimes"])
