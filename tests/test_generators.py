import numpy as np
import pytest

from greenp2 import (
    CONFIGURATION_IDS,
    ProjPoint,
    classify,
    configuration_map,
    exceptional_sets,
    invariant_lines,
    invariant_points,
    lattes_map,
)
from lattes_reference import lattes_root_pair_image


class TestConfigurationMaps:
    def test_power_row_is_exact(self):
        f = configuration_map("3-3", 3, rng_seed=0)
        assert f.components[0].to_string() == "z^3"
        assert f.components[1].to_string() == "w^3"
        assert f.components[2].to_string() == "t^3"

    def test_row_2_3_shape(self):
        f = configuration_map("2-3", 2, rng_seed=5)
        assert f.components[1].to_string() == "w^2"
        assert f.components[2].to_string() == "t^2"
        comp0 = f.components[0]
        assert comp0.coeff(2, 0, 0) == 1.0  # z^2 head
        assert abs(comp0.coeff(0, 1, 1)) > 0.05  # w*t tail

    def test_row_1_0_detector_round_trip(self):
        f = configuration_map("1-0", 2, rng_seed=7)
        lines = invariant_lines(f)
        assert len(lines) == 1
        assert lines[0].form.to_string() == "t"
        sets = exceptional_sets(f)
        assert sets.e2_points == []

    def test_unknown_row_rejected(self):
        with pytest.raises(ValueError):
            configuration_map("5-5", 2, rng_seed=0)

    def test_round_trip_sample(self):
        for rid in CONFIGURATION_IDS:
            f = configuration_map(rid, 2, rng_seed=23)
            assert classify(exceptional_sets(f)).row_id == rid

    def test_determinism(self):
        a = configuration_map("1-2", 2, rng_seed=9)
        b = configuration_map("1-2", 2, rng_seed=9)
        for pa, pb in zip(a.components, b.components):
            assert np.array_equal(pa.coeffs, pb.coeffs)


class TestLattes:
    def test_valid_degree_two(self, lattes):
        assert lattes.degree == 2
        assert lattes.nondegeneracy_residual > 0

    def test_fiber_count_four(self, lattes):
        rng = np.random.default_rng(1)
        for _ in range(3):
            q = ProjPoint(rng.standard_normal(3) + 1j * rng.standard_normal(3))
            fib = lattes.preimages(q)
            assert fib.complete and fib.total_multiplicity == 4

    def test_empty_invariant_structure(self, lattes):
        assert invariant_lines(lattes) == []
        assert invariant_points(lattes) == []

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_root_pair_oracle(self, d):
        """The quotient construction commutes with mapping unordered root pairs."""
        f = lattes_map(d)
        rng = np.random.default_rng(0)
        for _ in range(100):
            z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            src = np.array([1.0, -(z1 + z2), z1 * z2], dtype=complex)
            img = f.lift(src / np.linalg.norm(src))
            oracle = lattes_root_pair_image(d, z1, z2)
            k = int(np.argmax(np.abs(oracle)))
            assert np.max(np.abs(img / img[k] - oracle / oracle[k])) < 1e-8

    def test_integer_coefficients(self, lattes):
        for comp in lattes.components:
            assert np.allclose(comp.coeffs.imag, 0.0)
            assert np.allclose(comp.coeffs.real, np.round(comp.coeffs.real))
