"""Scalar-vs-vectorized equivalence for the interval tier.

The vectorized chip solver (batch traffic kernel, lockstep bisection,
warm-started brackets) must be *bit-identical* to the golden scalar
reference (`ChipModel._solve`) — not merely close.  These tests pin that
contract over the tier-1 figure grid, randomized placements (hypothesis),
warm-start hints good and garbage, the batched entry point, and the
study-level slab path.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.study as stmod
from repro.core.designs import ChipDesign, DESIGN_ORDER, all_designs, get_design
from repro.core.scheduler import Scheduler
from repro.interval.contention import ChipModel, evaluate_batch
from repro.microarch.config import BIG, MEDIUM, SMALL
from repro.obs import METRICS, reset_observability
from repro.workloads.multiprogram import heterogeneous_mixes, profiles_for
from repro.workloads.profiles import MissRateCurve
from repro.workloads.spec import SPEC_ORDER


def _placement(design, mix, smt=True):
    return Scheduler(design, smt=smt).place(profiles_for(list(mix)))


def _grid_points(designs, counts, mixes_per_count=None):
    for name in designs:
        design = get_design(name)
        model = ChipModel(design)
        for n in counts:
            mixes = heterogeneous_mixes(n)
            if mixes_per_count is not None:
                mixes = mixes[:mixes_per_count]
            for mix in mixes:
                yield model, _placement(design, mix)


class TestGoldenEquivalence:
    def test_fast_grid_subset(self):
        """Three designs x four counts x two mixes: exact equality."""
        for model, placement in _grid_points(
            DESIGN_ORDER[:3], (1, 2, 4, 8), mixes_per_count=2
        ):
            vector = model._solve_vectorized(placement, True, None)
            assert vector == model._solve(placement, True)

    @pytest.mark.slow
    def test_full_tier1_grid(self):
        """Every figure-grid point (9 designs x counts 1..9, all mixes)."""
        checked = 0
        for model, placement in _grid_points(
            [d.name for d in all_designs()], range(1, 10)
        ):
            vector = model._solve_vectorized(placement, True, None)
            assert vector == model._solve(placement, True)
            checked += 1
        assert checked > 900  # the full 963-point slab actually ran

    def test_smt_off_and_no_smt_designs(self):
        for name in ("4B", DESIGN_ORDER[-1]):
            design = get_design(name)
            model = ChipModel(design)
            placement = _placement(design, heterogeneous_mixes(4)[0], smt=False)
            vector = model._solve_vectorized(placement, False, None)
            assert vector == model._solve(placement, False)

    def test_icount_fetch_policy_falls_back_bit_identically(self):
        """ICOUNT SMT has no batch statics; the scalar fallback must match."""
        design = get_design("4B")
        model = ChipModel(design, fetch_policy="icount")
        placement = _placement(design, heterogeneous_mixes(8)[0])
        vector = model._solve_vectorized(placement, True, None)
        assert vector == model._solve(placement, True)

    _CORES = {"big": BIG, "medium": MEDIUM, "small": SMALL}

    @settings(max_examples=25, deadline=None)
    @given(
        core_names=st.lists(
            st.sampled_from(["big", "medium", "small"]), min_size=1, max_size=3
        ),
        mix=st.lists(st.sampled_from(SPEC_ORDER), min_size=1, max_size=6),
        smt=st.booleans(),
    )
    def test_property_random_placements(self, core_names, mix, smt):
        design = ChipDesign(
            name="prop-" + "-".join(core_names),
            cores=tuple(self._CORES[c] for c in core_names),
        )
        # Placements beyond the chip's hardware contexts fail validation in
        # SMT mode (pre-existing contract); only feasible ones are compared.
        assume(
            not smt
            or len(mix) <= sum(c.max_smt_contexts for c in design.cores)
        )
        model = ChipModel(design)
        placement = _placement(design, mix, smt=smt)
        vector = model._solve_vectorized(placement, smt, None)
        assert vector == model._solve(placement, smt)


class TestWarmStart:
    def _cold_and_model(self):
        design = get_design("4B")
        model = ChipModel(design)
        placement = _placement(design, heterogeneous_mixes(12)[0])
        return model, placement, model._solve_vectorized(placement, True, None)

    def test_exact_root_hint_is_bit_identical(self):
        model, placement, cold = self._cold_and_model()
        warm = model._solve_vectorized(placement, True, cold.mem_latency_ns)
        assert warm == cold

    @pytest.mark.parametrize("hint", [-5.0, 0.0, 700.0, 1e6])
    def test_garbage_hints_are_bit_identical(self, hint):
        """A wrong or absurd hint may cost evaluations, never correctness."""
        model, placement, cold = self._cold_and_model()
        warm = model._solve_vectorized(placement, True, hint)
        assert warm == cold

    def test_unloaded_latency_hint(self):
        model, placement, cold = self._cold_and_model()
        warm = model._solve_vectorized(
            placement, True, model.unloaded_mem_latency_ns
        )
        assert warm == cold

    def test_warm_grid_matches_cold_and_scalar(self):
        """Chained hints (each point hinted by the previous root) stay exact."""
        design = get_design("8m")
        model = ChipModel(design)
        hint = None
        for n in (2, 3, 4, 6, 8):
            placement = _placement(design, heterogeneous_mixes(n)[0])
            warm = model._solve_vectorized(placement, True, hint)
            assert warm == model._solve(placement, True)
            hint = warm.mem_latency_ns


class TestEvaluateBatch:
    def test_batch_matches_per_point(self):
        requests = []
        for name in DESIGN_ORDER[:3]:
            design = get_design(name)
            model = ChipModel(design)
            for n in (1, 3, 6):
                placement = _placement(design, heterogeneous_mixes(n)[0])
                requests.append((model, placement, True, None))
        batch = evaluate_batch(requests)
        for (model, placement, smt, _hint), result in zip(requests, batch):
            assert result == model.evaluate(placement, smt)

    def test_solver_metrics_observed(self):
        reset_observability()
        METRICS.enable()
        try:
            design = get_design("4B")
            model = ChipModel(design)
            placement = _placement(design, heterogeneous_mixes(8)[0])
            evaluate_batch([(model, placement, True, None)])
            snap = METRICS.snapshot()
            assert "interval.solver.iterations" in snap["histograms"]
            assert "interval.solver.evals" in snap["histograms"]
        finally:
            reset_observability()


class TestStudySlabPath:
    def _grid(self, study):
        results = {}
        for name in DESIGN_ORDER[:3]:
            for n in (1, 2, 4):
                for mix in study.mixes("heterogeneous", n)[:3]:
                    results[(name, tuple(mix))] = study.evaluate_mix(
                        name, list(mix)
                    )
        return results

    def test_batch_prefetch_matches_scalar_per_point(self, monkeypatch):
        # Per-point evaluation through the scalar reference solver.
        monkeypatch.setattr(
            ChipModel,
            "_solve_vectorized",
            lambda model, placement, smt=True, hint=None: model._solve(
                placement, smt
            ),
        )
        stmod.clear_latency_hint_cache()
        scalar = self._grid(stmod.DesignSpaceStudy())
        monkeypatch.undo()
        stmod.clear_latency_hint_cache()
        study = stmod.DesignSpaceStudy()
        study.prefetch(DESIGN_ORDER[:3], "heterogeneous", (1, 2, 4))
        vector = self._grid(study)
        assert vector == scalar

    def test_nearest_hint_selection(self):
        assert stmod._nearest_hint({}, 4) is None
        assert stmod._nearest_hint({2: 100.0}, 8) == 100.0
        # Ties resolve toward fewer threads.
        assert stmod._nearest_hint({2: 100.0, 4: 200.0}, 3) == 100.0
        assert stmod._nearest_hint({2: 100.0, 4: 200.0}, 4) == 200.0

    def test_hint_cache_clear(self):
        hints = stmod._latency_hints(get_design("4B"), True)
        hints[4] = 123.0
        stmod.clear_latency_hint_cache()
        assert stmod._latency_hints(get_design("4B"), True) == {}


class TestMpkiMemo:
    def test_memoized_values_match_fresh_curve(self):
        a = MissRateCurve(mpki_ref=20.0, alpha=0.5)
        b = MissRateCurve(mpki_ref=20.0, alpha=0.5)
        capacities = [0.0, 1024.0, 32 * 1024.0, 1e6, 64e6]
        first = [a.mpki(c) for c in capacities]
        again = [a.mpki(c) for c in capacities]  # memo hits
        fresh = [b.mpki(c) for c in capacities]
        assert first == again == fresh

    def test_memo_does_not_affect_hash_equality_or_key(self):
        from repro.engine import content_key

        a = MissRateCurve(mpki_ref=20.0, alpha=0.5)
        b = MissRateCurve(mpki_ref=20.0, alpha=0.5)
        a.mpki(4096.0)  # populate a's memo only
        assert a == b
        assert hash(a) == hash(b)
        assert content_key(a) == content_key(b)

    def test_misses_per_instruction_uses_memo(self):
        curve = MissRateCurve(mpki_ref=10.0, alpha=0.7)
        assert curve.misses_per_instruction(8192.0) == curve.mpki(8192.0) / 1000.0
