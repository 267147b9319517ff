import json

import numpy as np
import pytest

from helpers import fourier_context, projector_distance, random_ray_map, standard_context
from qcontexts.core import make_generator
from qcontexts.errors import MalformedDocument, NotOrthonormal
from qcontexts.jsonio import (
    _complex_array,
    complex_to_json,
    context_from_json,
    context_to_json,
    contexts_from_json,
    dataset_path,
    density_from_json,
    density_to_json,
    frame_samples_from_json,
    grouped_samples_from_json,
    permutation_from_json,
    ray_map_from_json,
    ray_map_to_json,
)
from qcontexts.linalg import max_abs
from qcontexts.sampling import random_context, random_density
from qcontexts.uhlhorn import check_orthogonality_preserving, classify_transform, fit_transform


class TestScalars:
    def test_pair_round_trip(self):
        assert _complex_array([[[1.5, -2.0]]], (1, 1))[0, 0] == complex(1.5, -2.0)

    def test_bare_number_shorthand(self):
        assert _complex_array([[3, -0.25]], (1, 2)).tolist() == [
            [complex(3.0, 0.0), complex(-0.25, 0.0)]]

    def test_garbage_rejected(self):
        with pytest.raises(MalformedDocument):
            _complex_array([["nope"]], (1, 1))
        with pytest.raises(MalformedDocument):
            _complex_array([[[1, 2, 3]]], (1, 1))

    def test_vector_and_matrix_round_trip(self):
        v = np.array([1 + 2j, -0.5j, 3.0])
        assert np.array_equal(_complex_array([complex_to_json(v)], (3,)), v)
        m = np.array([[1 + 1j, 0], [2, -1j]])
        assert np.array_equal(_complex_array(complex_to_json(m), (2, 2)), m)


def ref_complex_json(a) -> list:
    """The per-entry writer complex_to_json replaced: [float(re), float(im)]
    of complex(z) for each entry, nested as the array's axes."""
    a = np.asarray(a)
    if a.ndim == 0:
        z = complex(a)
        return [float(z.real), float(z.imag)]
    return [ref_complex_json(x) for x in a]


class TestComplexWriter:
    def test_bytes_match_the_per_entry_writer(self):
        rng = make_generator(8)
        stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        signed = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                           -1.5 + 1e-300j, complex(2.0, -0.0)])
        values = [complex(-0.0, 1.0), np.complex128(complex(0.25, -0.0)), np.array(-3j),
                  signed, stack[0, 0], stack[0], stack, stack.transpose(0, 2, 1),
                  np.zeros((2, 0), dtype=np.complex128)]
        for a in values:
            assert (json.dumps(complex_to_json(a), indent=2)
                    == json.dumps(ref_complex_json(a), indent=2))
        assert json.dumps(complex_to_json(signed)).count("-0.0") == 5
        assert complex_to_json(np.array(-3j)) == [0.0, -3.0]


class TestContextIO:
    def test_round_trip(self):
        c = fourier_context(3)
        doc = context_to_json(c)
        back = context_from_json(doc)
        assert back.label == "fourier"
        for p, q in zip(c.projectors, back.projectors):
            assert projector_distance(p, q) <= 1e-12

    def test_single_or_list(self):
        doc = context_to_json(standard_context(3))
        assert len(contexts_from_json(doc)) == 1
        multi = {"contexts": [doc, context_to_json(fourier_context(3))]}
        assert [c.label for c in contexts_from_json(multi)] == ["standard", "fourier"]

    def test_non_orthonormal_vectors_rejected(self):
        doc = {"dim": 2 + 1, "label": "bad",
               "vectors": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]}
        with pytest.raises(NotOrthonormal):
            context_from_json(doc)

    def test_wrong_count_rejected(self):
        doc = {"dim": 3, "label": "x", "vectors": [[1, 0, 0]]}
        with pytest.raises(MalformedDocument):
            context_from_json(doc)


class TestDensityIO:
    def test_round_trip(self):
        rho = random_density(3, make_generator(5))
        back = density_from_json(density_to_json(rho))
        assert max_abs(back.matrix - rho.matrix) <= 1e-12

    def test_invalid_matrix_rejected(self):
        doc = {"dim": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
        # trace 2: not a density operator
        with pytest.raises(MalformedDocument):
            density_from_json(doc)


class TestRayMapIO:
    def test_round_trip_preserves_fit(self):
        m, hidden = random_ray_map(3, make_generator(9))
        back = ray_map_from_json(ray_map_to_json(m))
        assert back.dim == 3
        assert back.source_vectors.shape == back.target_vectors.shape == m.source_vectors.shape
        fit = fit_transform(back, classify_transform(back, check_orthogonality_preserving(back)))
        assert fit.residual <= 1e-8

    def test_writes_only_dim_and_pairs(self):
        m, _ = random_ray_map(3, make_generator(10))
        doc = ray_map_to_json(m)
        assert list(doc) == ["dim", "pairs"]
        assert len(doc["pairs"]) == len(m.source_vectors)

    def test_keys_beyond_the_pairs_are_ignored(self):
        m, _ = random_ray_map(3, make_generator(11))
        doc = ray_map_to_json(m)
        plain = ray_map_from_json(doc)
        extra = ray_map_from_json({**doc, "covering_contexts": ["ghost"], "contexts": 5})
        assert np.array_equal(extra.source_vectors, plain.source_vectors)
        assert np.array_equal(extra.target_vectors, plain.target_vectors)

    @pytest.mark.parametrize("name", ["raymap_unitary_dim3.json",
                                      "raymap_antiunitary_dim3.json"])
    def test_bundled_map_holds_only_dim_and_pairs(self, name):
        doc = json.loads(dataset_path(name).read_text())
        assert list(doc) == ["dim", "pairs"]
        assert list(ray_map_to_json(ray_map_from_json(doc))) == list(doc)

    def test_missing_pairs_rejected(self):
        with pytest.raises(MalformedDocument):
            ray_map_from_json({"dim": 3, "pairs": []})


def _through_text(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


class TestWhatIsWrittenReadsBackBitForBit:
    """Each row a writer emits is unit to rounding, so the reader keeps it."""

    def test_ray_maps(self):
        for seed in range(50):
            m, _ = random_ray_map(3, make_generator(seed), n_extra=20)
            back = ray_map_from_json(_through_text(ray_map_to_json(m)))
            assert back.source_vectors.tobytes() == m.source_vectors.tobytes()
            assert back.target_vectors.tobytes() == m.target_vectors.tobytes()

    def test_contexts(self):
        for seed in range(200):
            c = random_context(4, make_generator(seed))
            assert context_from_json(_through_text(context_to_json(c))).vectors.tobytes() \
                == c.vectors.tobytes()

    def test_densities(self):
        for seed in range(200):
            rho = random_density(3 + seed % 4, make_generator(seed))
            assert density_from_json(_through_text(density_to_json(rho))).matrix.tobytes() \
                == rho.matrix.tobytes()


class TestFrameSampleIO:
    def test_flat_format(self):
        doc = {
            "dim": 3,
            "samples": [
                {"vector": [[1, 0], [0, 0], [0, 0]], "value": 0.5},
                {"vector": [[0, 0], [1, 0], [0, 0]], "value": 0.25},
            ],
        }
        samples = frame_samples_from_json(doc)
        assert len(samples) == 2
        assert samples[0].value == 0.5

    def test_grouped_format(self):
        c = standard_context(3)
        doc = {"contexts": [{
            "label": "g",
            "vectors": [complex_to_json(p.vector) for p in c.projectors],
            "values": [0.2, 0.3, 0.5],
        }]}
        groups = grouped_samples_from_json(doc)
        assert groups[0][0].label == "g"
        assert groups[0][1] == [0.2, 0.3, 0.5]
        flat = frame_samples_from_json(doc)
        assert [s.value for s in flat] == [0.2, 0.3, 0.5]

    def test_value_out_of_range_rejected(self):
        doc = {"dim": 3,
               "samples": [{"vector": [[1, 0], [0, 0], [0, 0]], "value": 2.0}]}
        from qcontexts.errors import ValueOutOfRange
        with pytest.raises(ValueOutOfRange):
            frame_samples_from_json(doc)


class TestPermutationIO:
    def test_round_trip(self):
        sigma = permutation_from_json({"n": 4, "images": [1, 2, 3, 0]})
        assert sigma.images == (1, 2, 3, 0)

    def test_malformed_rejected(self):
        with pytest.raises(MalformedDocument):
            permutation_from_json({"n": 3, "images": [0, 0, 2]})
        with pytest.raises(MalformedDocument):
            permutation_from_json({"n": 3})
