from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    fourier_basis,
    fourier_context,
    maximally_mixed,
    projector_distance,
    pure_density,
    random_projector,
    simulate_reference,
    standard_basis,
    standard_context,
)
from qcontexts.core import (
    ContextTransform,
    DensityOperator,
    Modality,
    Projector,
    apply_transform,
    are_exclusive,
    born_probability,
    context_distribution,
    extravalence_classes,
    extravalent,
    make_context,
    make_generator,
    repeat_simulation,
)
from qcontexts import core, linalg
from qcontexts.core import _philox_uniforms
from qcontexts.errors import DimensionMismatch, NotOrthonormal
from qcontexts.linalg import Tolerance, max_abs, overlap_moduli, ray_distance
from qcontexts.sampling import random_context, random_density, random_state_vector, random_unitary


class TestMakeContext:
    def test_standard_basis_gives_diagonal_projectors(self):
        c = standard_context(3)
        for i, p in enumerate(c.projectors):
            expected = np.zeros((3, 3))
            expected[i, i] = 1.0
            assert max_abs(p.matrix - expected) < 1e-12

    def test_fourier_context_is_complete(self):
        # oracle: direct matrix sum
        c = fourier_context(3)
        total = sum(p.matrix for p in c.projectors)
        assert max_abs(total - np.eye(3)) <= 1e-9
        assert c.exclusivity_defect() <= 1e-9

    def test_repeated_vector_rejected(self):
        with pytest.raises(NotOrthonormal) as err:
            make_context([(1, 0, 0), (1, 0, 0), (0, 0, 1)], "bad")
        assert err.value.pair == (0, 1)
        assert abs(err.value.inner_product - 1.0) < 1e-12

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(NotOrthonormal) as err:
            make_context([(2, 0), (0, 1)], "bad")
        assert err.value.pair == (0, 0)

    def test_projector_invariants(self):
        c = fourier_context(4)
        for p in c.projectors:
            assert max_abs(p.matrix - p.matrix.conj().T) <= 1e-12
            assert max_abs(p.matrix @ p.matrix - p.matrix) <= 1e-12
            assert abs(np.trace(p.matrix).real - 1.0) <= 1e-12


class TestDataModel:
    @pytest.mark.parametrize("n", [3, 8])
    def test_basis_columns_are_the_inputs_normalized_one_by_one(self, n):
        # oracle: each input vector (a column of u) as it is when its own norm
        # lies within 8 n u of 1, else divided by that norm, to the last bit, as
        # the context's row; a norm over axis 0 of u rounds differently
        def ref(v):
            norm = np.linalg.norm(v)
            return v if abs(norm - 1) <= 8 * n * 2.0**-53 else v / norm

        for seed in range(1000):
            u = random_unitary(n, make_generator(seed))
            c = random_context(n, make_generator(seed))
            stretched = make_context(list((u * (1 + 1e-12)).T))
            for k in range(n):
                assert np.array_equal(c.vectors[k], ref(u[:, k]))
                assert np.array_equal(stretched.vectors[k], u[:, k] * (1 + 1e-12) /
                                      np.linalg.norm(u[:, k] * (1 + 1e-12)))

    @pytest.mark.parametrize("vector", [
        [1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        [np.nan, 0.0, 0.0],
        [np.inf, 0.0, 0.0],
        [[1.0, 0.0], [0.0, 0.0]],
    ])
    def test_projector_constructor_rejects_non_unit_non_finite_and_2d(self, vector):
        with pytest.raises(ValueError):
            Projector(np.asarray(vector, dtype=np.complex128))

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_projector_accepts_exactly_the_rows_unit_rows_keeps(self, n):
        """A vector is a Projector's exactly when linalg.unit_rows keeps it as
        it is, so its matrix is idempotent to rounding: 5e-10 short of unit
        norm, which a 1e-9 slack once let through, is refused."""
        v = random_state_vector(n, make_generator(n))
        with pytest.raises(ValueError, match="does not have unit norm"):
            Projector(v * (1 - 5e-10))
        seen = set()
        for f in (-5e-10, -1e-14, -3 * n * 2.0**-53, 0.0, 2.0**-52, 9 * n * 2.0**-53, 1e-9):
            w = v * (1 + f)
            kept = np.array_equal(linalg.unit_rows(w, Tolerance(), ValueError), w)
            seen.add(kept)
            try:
                p = Projector(w)
            except ValueError:
                assert not kept, f
            else:
                assert kept, f
                # |v|^2 lies within 16 n u of 1, and each product entry adds n roundings
                assert max_abs(p.matrix @ p.matrix - p.matrix) <= 24 * n * 2.0**-53
        assert seen == {True, False}

    def test_projector_constructor_keeps_its_own_read_only_copy(self):
        v = np.array([0.6, 0.8j, 0.0])
        p = Projector(v)
        v[0] = 1.0
        assert p.vector[0] == 0.6 and not p.vector.flags.writeable
        assert v.flags.writeable
        assert p.dim == 3 and p.matrix is p.matrix

    def test_value_types_are_immutable_and_compared_by_identity(self):
        c = standard_context(3)
        p = c.projectors[0]
        values = ((p, "vector"), (c, "label"), (maximally_mixed(3), "matrix"),
                  (ContextTransform.from_matrix(np.eye(3)), "antiunitary"))
        for obj, name in values:
            before = getattr(obj, name)
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            assert getattr(obj, name) is before
        assert Projector(p.vector) != p and p == p

    @pytest.mark.parametrize("build", [DensityOperator.from_matrix, ContextTransform.from_matrix])
    def test_empty_matrix_rejected(self, build):
        with pytest.raises(ValueError):
            build(np.zeros((0, 0)))

    @pytest.mark.parametrize("index", [-4, -1, 3, 7])
    def test_modality_index_outside_the_context_rejected(self, index):
        # a negative index named the same projector as index + dim but compared unequal
        c = standard_context(3)
        with pytest.raises(IndexError):
            c.modality(index)
        assert c.modality(2) == c.modalities()[2] == Modality("standard", 2, c.projectors[2])

    def test_context_projectors_are_built_once(self):
        c = random_context(4, make_generator(5))
        first = c.projectors
        assert c.projectors is first
        for k, p in enumerate(first):
            assert np.array_equal(p.vector, c.vectors[k])


class TestBornProbability:
    def test_same_projector_gives_one(self):
        q = random_projector(3, make_generator(5))
        rho = pure_density(q)
        assert born_probability(rho, q) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projector_gives_zero(self):
        c = standard_context(3)
        rho = pure_density(c.projectors[0])
        assert born_probability(rho, c.projectors[1]) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_gives_one_third(self):
        rho = maximally_mixed(3)
        p = random_projector(3, make_generator(9))
        assert born_probability(rho, p) == pytest.approx(1 / 3, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = maximally_mixed(3)
        with pytest.raises(DimensionMismatch):
            born_probability(rho, random_projector(4, make_generator(1)))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_born_bridge_pure_states(self, seed):
        # independent oracle: |<psi_Q|psi_P>|^2
        rng = make_generator(seed)
        n = int(rng.integers(2, 6))
        q = random_projector(n, rng)
        p = random_projector(n, rng)
        got = born_probability(pure_density(q), p)
        expected = abs(np.vdot(q.vector, p.vector)) ** 2
        assert got == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_equals_its_context_distribution_entry_bit_for_bit(self, n):
        # one Born function: a projector alone gets the bits it gets in its context
        rng = make_generator(1000 + n)
        for _ in range(20):
            rho, c = random_density(n, rng), random_context(n, rng)
            per = [born_probability(rho, p) for p in c.projectors]
            assert per == context_distribution(rho, c).tolist()


class TestContextDistribution:
    def test_pure_state_in_own_context(self):
        c = standard_context(3)
        rho = pure_density(c.projectors[0])
        assert np.allclose(context_distribution(rho, c), [1, 0, 0], atol=1e-12)

    def test_maximally_mixed_uniform(self):
        c = fourier_context(3)
        d = context_distribution(maximally_mixed(3), c)
        assert np.allclose(d, 1 / 3, atol=1e-12)

    def test_matches_per_projector_formula(self):
        rng = make_generator(33)
        rho = random_density(4, rng)
        c = random_context(4, rng)
        d = context_distribution(rho, c)
        per = [born_probability(rho, p) for p in c.projectors]
        assert np.array_equal(d, per)

    def test_thousand_random_contexts_sum_to_one(self):
        rng = make_generator(404)
        rho = random_density(3, rng)
        for _ in range(1000):
            d = context_distribution(rho, random_context(3, rng))
            assert abs(float(d.sum()) - 1.0) <= 1e-10
            assert d.min() >= -1e-10 and d.max() <= 1.0 + 1e-10


class TestExclusivityAndExtravalence:
    def test_distinct_modalities_of_one_context_exclusive(self):
        c = fourier_context(3)
        assert are_exclusive(c.modality(0), c.modality(1))

    def test_same_modality_not_exclusive(self):
        c = fourier_context(3)
        assert not are_exclusive(c.modality(0), c.modality(0))

    def test_unbiased_bases_never_exclusive(self):
        # oracle: |<e_i|f_j>|^2 = 1/3 for standard vs Fourier in dim 3
        cs, cf = standard_context(3), fourier_context(3)
        for i in range(3):
            for j in range(3):
                overlap = abs(np.vdot(cs.projectors[i].vector,
                                      cf.projectors[j].vector)) ** 2
                assert overlap == pytest.approx(1 / 3, abs=1e-12)
                assert not are_exclusive(cs.modality(i), cf.modality(j))

    def test_phase_shifted_representative_is_extravalent(self):
        v = np.array([0.6, 0.8, 0.0])
        comp1 = np.array([-0.8, 0.6, 0.0])
        comp2 = np.array([0.0, 0.0, 1.0])
        a = make_context([v, comp1, comp2], "A")
        b = make_context([np.exp(1j * 0.4) * v,
                          (comp1 + comp2) / np.sqrt(2),
                          (comp1 - comp2) / np.sqrt(2)], "B")
        assert extravalent(a.modality(0), b.modality(0))

    def test_distinct_modalities_not_extravalent(self):
        c = standard_context(3)
        assert not extravalent(c.modality(0), c.modality(1))

    def test_shared_ray_across_different_contexts(self):
        # e1 inside {e1,e2,e3} and inside {e1,(e2+e3)/sqrt2,(e2-e3)/sqrt2}
        e = standard_basis(3)
        c1 = make_context(e, "C1")
        c2 = make_context([e[0], (e[1] + e[2]) / np.sqrt(2),
                           (e[1] - e[2]) / np.sqrt(2)], "C2")
        assert extravalent(c1.modality(0), c2.modality(0))
        assert not extravalent(c1.modality(1), c2.modality(1))

    def test_classes_all_equal(self):
        q = random_projector(3, make_generator(2))
        mods = [("a", 0, q), ("b", 1, q), ("c", 2, q)]
        from qcontexts.core import Modality
        classes = extravalence_classes([Modality(*m) for m in mods])
        assert classes == [[0, 1, 2]]

    def test_classes_singletons_for_one_context(self):
        c = fourier_context(4)
        classes = extravalence_classes(c.modalities())
        assert classes == [[0], [1], [2], [3]]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_extravalence_is_reflexive_and_symmetric(self, seed):
        rng = make_generator(seed)
        c = random_context(3, rng, "A")
        d = random_context(3, rng, "B")
        mods = c.modalities() + d.modalities()
        for m1 in mods:
            assert extravalent(m1, m1)
            for m2 in mods:
                assert extravalent(m1, m2) == extravalent(m2, m1)

    def test_classes_match_pairwise_oracle(self):
        e = standard_basis(3)
        c1 = make_context(e, "C1")
        c2 = make_context([e[0], (e[1] + e[2]) / np.sqrt(2),
                           (e[1] - e[2]) / np.sqrt(2)], "C2")
        mods = c1.modalities() + c2.modalities()
        classes = extravalence_classes(mods)
        # pairwise closure oracle
        same = {(i, j) for i in range(6) for j in range(6)
                if extravalent(mods[i], mods[j])}
        for group in classes:
            for i in group:
                for j in group:
                    assert (i, j) in same
        flat = sorted(i for g in classes for i in g)
        assert flat == list(range(6))
        assert classes == [[0, 3], [1], [2], [4], [5]]

    def test_classes_equal_the_pairwise_rule(self):
        """Random rays with rephased copies, chains of copies and near copies
        1 ulp either side of eps: the classes are the transitive closure of
        the pairwise rule, ray_distance(v_i, v_j) <= eps for i < j, taken
        over all pairs."""
        rng = make_generator(408)
        for trial in range(12):
            ps = [random_projector(3 + trial % 3, rng) for _ in range(14)]
            for i, j in ((0, 4), (4, 9), (2, 13), (6, 7)):
                ps[j] = Projector(ps[i].vector * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            near = ps[1].vector + 1e-7 * random_projector(len(ps[1].vector), rng).vector
            ps[11] = Projector.from_vector(near)
            d = ray_distance(ps[1].vector, ps[11].vector)
            mods = [Modality("m", k, p) for k, p in enumerate(ps)]
            for eps in (1e-9, np.nextafter(d, 0), d, np.nextafter(d, 1)):
                tol = Tolerance(eps)
                parent = list(range(len(ps)))
                for i, j in combinations(range(len(ps)), 2):
                    if ray_distance(ps[i].vector, ps[j].vector) <= eps:
                        a, b = parent[i], parent[j]
                        parent = [a if x == b else x for x in parent]
                groups = {}
                for k, root in enumerate(parent):
                    groups.setdefault(root, []).append(k)
                expected = sorted(groups.values())
                assert extravalence_classes(mods, tol) == expected
                assert ([1, 11] in expected) == (eps >= d)
            assert [0, 4, 9] in expected and [2, 13] in expected

    def test_exclusivity_is_the_overlap_modulus(self):
        """are_exclusive and exclusivity_defect decide on the overlap modulus
        |<u|v>| of linalg.overlap_moduli: within rounding of each np.vdot,
        and exact on a ray against e1."""
        rng = make_generator(409)
        for n in (3, 4, 6):
            c = random_context(n, rng, "A")
            moduli = overlap_moduli(c.vectors)
            assert c.exclusivity_defect() == max(moduli[i, j] for i, j in combinations(range(n), 2))
            assert c.exclusivity_defect() <= 1e-15
            d = random_context(n, rng, "B")
            for m1 in c.modalities():
                for m2 in d.modalities() + c.modalities():
                    overlap = abs(np.vdot(m1.projector.vector, m2.projector.vector))
                    assert are_exclusive(m1, m2) == (overlap <= 1e-9)
        # a ray 1e-6 off orthogonal to e1, at its overlap and 1 ulp below
        near = Modality("near", 0, Projector.from_vector([1e-6, 1, 0]))
        e1 = standard_context(3).modality(0)
        overlap = near.projector.vector[0].real
        for eps, exclusive in ((np.nextafter(overlap, 0), False), (overlap, True)):
            assert are_exclusive(e1, near, Tolerance(eps)) == exclusive
        assert make_context([[1.0]]).exclusivity_defect() == 0.0


class TestApplyTransform:
    def test_identity_transform_fixes_context(self):
        c = fourier_context(3)
        g = ContextTransform.from_matrix(np.eye(3))
        out = apply_transform(c, g)
        for p, q in zip(c.projectors, out.projectors):
            assert projector_distance(p, q) <= 1e-12

    def test_fourier_unitary_maps_standard_to_fourier(self):
        f = np.column_stack(fourier_basis(3))
        g = ContextTransform.from_matrix(f)
        out = apply_transform(standard_context(3), g)
        expected = fourier_context(3)
        for p, q in zip(out.projectors, expected.projectors):
            assert projector_distance(p, q) <= 1e-9

    def test_random_unitaries_preserve_invariants(self):
        rng = make_generator(77)
        for n in (3, 4, 5):
            for _ in range(50):
                c = random_context(n, rng)
                g = ContextTransform.from_matrix(random_unitary(n, rng))
                out = apply_transform(c, g)
                assert out.exclusivity_defect() <= 1e-9
                assert out.completeness_defect() <= 1e-9

    @pytest.mark.parametrize("antiunitary", [False, True])
    def test_one_product_matches_the_per_vector_action(self, antiunitary, monkeypatch):
        # reference: U v (U conj(v) when antiunitary) one row at a time, which
        # act_vector gives bit for bit on 1-D v; the batched rows round within 4 n u
        built = []
        post_init = Projector.__post_init__
        monkeypatch.setattr(Projector, "__post_init__", lambda p: built.append(p) or post_init(p))
        rng = make_generator(79)
        for n in (1, 3, 8, 16):
            for _ in range(20):
                c = random_context(n, rng, "c")
                g = ContextTransform.from_matrix(random_unitary(n, rng), antiunitary)
                per_vector = [g.matrix @ (v.conj() if antiunitary else v) for v in c.vectors]
                for v, w in zip(c.vectors, per_vector):
                    assert g.act_vector(v).tobytes() == w.tobytes()
                out = apply_transform(c, g)
                assert out.label == "c*"
                assert max_abs(out.vectors - make_context(per_vector).vectors) <= 4 * n * 2.0**-53
        assert built == []

    def test_completeness_defect_is_read_off_the_basis(self):
        # oracle: ||sum_i P_i - I||_max over projector matrices; no Projector is built
        for n in (1, 3, 8):
            c = random_context(n, make_generator(n))
            oracle = max_abs(sum(np.outer(v, v.conj()) for v in c.vectors) - np.eye(n))
            assert abs(c.completeness_defect() - oracle) <= 4 * n * 2.0**-53
            assert "projectors" not in vars(c)

    def test_antiunitary_action_conjugates(self):
        c = fourier_context(3)
        g = ContextTransform.from_matrix(np.eye(3), antiunitary=True)
        out = apply_transform(c, g)
        for p, q in zip(c.projectors, out.projectors):
            assert max_abs(q.matrix - p.matrix.conj()) <= 1e-12


class TestSimulateSequence:
    def test_certain_branch_repeats(self):
        c = standard_context(3)
        runs = repeat_simulation(c.projectors[1], [c, c, c], seed=0, repeats=1)
        assert runs[0].tolist() == [1, 1, 1]

    def test_repeatability_after_context_change(self):
        # second outcome always equals the first, for every seed
        c1 = standard_context(3, "C1")
        c2 = fourier_context(3, "C2")
        for outcomes in repeat_simulation(c1.projectors[0], [c2, c2], seed=0, repeats=100):
            assert outcomes[0] == outcomes[1]

    def test_deterministic_under_seed(self):
        c = fourier_context(3)
        p = standard_context(3).projectors[0]
        a = repeat_simulation(p, [c, c, c], seed=123, repeats=1)
        b = repeat_simulation(p, [c, c, c], seed=123, repeats=1)
        assert a[0].tolist() == b[0].tolist()

    def test_different_seeds_vary(self):
        c = fourier_context(3)
        p = standard_context(3).projectors[0]
        first = set(repeat_simulation(p, [c], seed=0, repeats=50)[:, 0].tolist())
        assert len(first) == 3  # all outcomes occur across seeds

    def test_repeat_simulation_uses_consecutive_seeds(self):
        c = fourier_context(3)
        p = standard_context(3).projectors[0]
        runs = repeat_simulation(p, [c], seed=10, repeats=5)
        singles = [simulate_reference(p, [c], seed=10 + k)[0] for k in range(5)]
        assert runs[:, 0].tolist() == singles

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_repeat_simulation_rejects_seed_outside_64_bits_instead_of_wrapping(self, seed):
        with pytest.raises(ValueError):
            repeat_simulation(standard_context(3).projectors[0], [fourier_context(3)],
                              seed=seed, repeats=2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            repeat_simulation(standard_context(3).projectors[0],
                              [standard_context(4)], seed=0, repeats=1)


class TestBatchSimulation:
    @pytest.mark.parametrize("steps", [1, 3, 4, 5, 17])
    def test_philox_kernel_matches_make_generator_bit_for_bit(self, steps):
        rng = np.random.default_rng(2024)
        keys = np.concatenate([
            np.array([0, 1, 2**64 - 2, 2**64 - 1], dtype=np.uint64),
            rng.integers(0, 2**64, size=1000, dtype=np.uint64, endpoint=False)])
        expected = np.array([make_generator(int(k)).random(steps) for k in keys])
        assert np.array_equal(_philox_uniforms(keys, steps), expected)

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([2, 3, 5]),
           picks=st.lists(st.integers(0, 2), min_size=1, max_size=6),
           seed=st.one_of(st.integers(0, 100), st.integers(2**64 - 100, 2**64 - 1)),
           repeats=st.integers(1, 50),
           world=st.integers(0, 2**32))
    def test_rows_equal_per_seed_runs(self, n, picks, seed, repeats, world):
        rng = make_generator(world)
        pool = [random_context(n, rng, f"c{k}") for k in range(3)]
        contexts = [pool[k] for k in picks]  # a small pool repeats contexts, often at once
        initial = random_projector(n, rng)
        runs = repeat_simulation(initial, contexts, seed, repeats)
        assert runs.shape == (repeats, len(contexts))
        for k in range(repeats):
            key = (seed + k) % 2**64
            assert runs[k].tolist() == simulate_reference(initial, contexts, key)


    def test_a_step_builds_rows_only_for_held_states(self, monkeypatch):
        """One run at dim 8 holds one state before each step, so each of the
        five steps hands one state to born_values, not one per basis vector."""
        states = []
        evaluate = core.born_values
        monkeypatch.setattr(core, "born_values",
                            lambda rhos, rows: states.append(len(rhos)) or evaluate(rhos, rows))
        rng = make_generator(5)
        contexts = [random_context(8, rng, f"c{k}") for k in range(5)]
        repeat_simulation(random_projector(8, rng), contexts, seed=3, repeats=1)
        assert states == [1] * len(contexts)

    def test_step_tables_are_the_cumulative_context_distributions(self, monkeypatch):
        """Each held state's table row, the cumsum of born_values on its
        projector stack, is the cumsum of its context distribution to the bit,
        in steps that hold one state of six and stacks split over row blocks."""
        n, calls = 6, []
        evaluate = core.born_values

        def record(rhos, rows):
            values = evaluate(rhos, rows)
            calls.append((rhos, rows, np.cumsum(values, axis=1)))
            return values

        monkeypatch.setattr(core, "born_values", record)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 2 * n * n)  # two states per block
        rng = make_generator(11)
        contexts = [random_context(n, rng, f"c{k}") for k in range(5)]
        initial = contexts[0].projectors[2]  # certain at step 0, so step 1 holds one state
        outcomes = repeat_simulation(initial, contexts, seed=7, repeats=400)
        monkeypatch.undo()
        held = [[initial]] + [[contexts[t - 1].projectors[s] for s in np.unique(outcomes[:, t - 1])]
                              for t in range(1, len(contexts))]
        assert [len(h) for h in held] == [1, 1, n, n, n]
        assert [len(rhos) for rhos, _, _ in calls] == [1, 1] + [2, 2, 2] * 3
        expected = [(c, s) for c, states in zip(contexts, held) for s in states]
        got = [(rows, rho, row) for rhos, rows, table in calls for rho, row in zip(rhos, table)]
        assert len(got) == len(expected)
        for (c, s), (rows, rho, row) in zip(expected, got):
            assert np.array_equal(rows, c.vectors)
            assert np.array_equal(rho, s.matrix)
            assert np.array_equal(row, np.cumsum(context_distribution(pure_density(s), c)))


class TestMakeGenerator:
    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            make_generator(-1)
        with pytest.raises(ValueError):
            make_generator(2**64)

    def test_streams_reproducible(self):
        a = make_generator(42).random(8)
        b = make_generator(42).random(8)
        assert np.array_equal(a, b)
