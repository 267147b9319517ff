import numpy as np
import pytest

from helpers import fourier_context, standard_context
from qcontexts.core import make_generator
from qcontexts.errors import MalformedDocument, NotOrthonormal
from qcontexts.jsonio import (
    _complex_array,
    context_from_json,
    context_to_json,
    contexts_from_json,
    density_from_json,
    density_to_json,
    frame_samples_from_json,
    grouped_samples_from_json,
    matrix_to_json,
    permutation_from_json,
    ray_map_from_json,
    ray_map_to_json,
    vector_to_json,
)
from qcontexts.linalg import max_abs
from qcontexts.sampling import random_density, random_ray_map
from qcontexts.uhlhorn import classify_transform, fit_transform


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
        assert np.array_equal(_complex_array([vector_to_json(v)], (3,)), v)
        m = np.array([[1 + 1j, 0], [2, -1j]])
        assert np.array_equal(_complex_array(matrix_to_json(m), (2, 2)), m)


class TestContextIO:
    def test_round_trip(self):
        c = fourier_context(3)
        doc = context_to_json(c)
        back = context_from_json(doc)
        assert back.label == "fourier"
        for p, q in zip(c.projectors, back.projectors):
            assert p.distance(q) <= 1e-12

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
        assert len(back.pairs) == len(m.pairs)
        fit = fit_transform(back, classify_transform(back))
        assert fit.residual <= 1e-8

    def test_covering_context_as_label_table(self):
        m, _ = random_ray_map(3, make_generator(10))
        doc = ray_map_to_json(m)
        inline = doc["covering_contexts"][0]
        doc["contexts"] = {inline["label"]: inline["vectors"]}
        doc["covering_contexts"] = [inline["label"]]
        back = ray_map_from_json(doc)
        assert back.covering_contexts[0].label == inline["label"]

    def test_covering_context_as_bare_vectors(self):
        m, _ = random_ray_map(3, make_generator(11))
        doc = ray_map_to_json(m)
        doc["covering_contexts"] = [doc["covering_contexts"][0]["vectors"]]
        back = ray_map_from_json(doc)
        assert back.covering_contexts[0].label == "covering-0"

    def test_unknown_label_rejected(self):
        m, _ = random_ray_map(3, make_generator(12))
        doc = ray_map_to_json(m)
        doc["covering_contexts"] = ["ghost"]
        with pytest.raises(MalformedDocument):
            ray_map_from_json(doc)

    def test_missing_pairs_rejected(self):
        with pytest.raises(MalformedDocument):
            ray_map_from_json({"dim": 3, "pairs": []})


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
            "vectors": [vector_to_json(p.vector) for p in c.projectors],
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
