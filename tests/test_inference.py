"""Planned inference engine tests.

The engine's contract: every row of a planned (possibly batched) forward
is bitwise identical to running that sample alone through the
layer-by-layer training path — that is what lets the lockstep runtime
batch CNN execution across clips without changing a single result bit.
float32 mode is the explicit exception, covered by tolerance bounds.
"""

import numpy as np
import pytest

from repro.nn import InferencePlan
from repro.nn.train import get_trained_network
from repro.runtime.scheduler import single_blas_thread

NETWORKS = ("mini_fasterm", "mini_alexnet", "mini_faster16")


@pytest.fixture(scope="module", params=NETWORKS)
def net(request):
    return get_trained_network(request.param)


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(42)
    return rng.random((8, 1, 64, 64))


class TestBitIdentity:
    def test_rows_match_serial_forward(self, net, frames):
        plan = net.inference_plan(max_batch=8)
        for batch in (1, 3, 8):
            out = plan.run(frames[:batch])
            for s in range(batch):
                want = net.forward(frames[s : s + 1])[0]
                np.testing.assert_array_equal(out[s], want)

    def test_prefix_suffix_split(self, net, frames):
        plan = net.inference_plan(max_batch=4)
        target = net.last_spatial_layer()
        act = plan.run_prefix(frames[:4], target)
        out = plan.run_suffix(act, target)
        for s in range(4):
            act_want = net.forward_prefix(frames[s : s + 1], target)
            np.testing.assert_array_equal(act[s], act_want[0])
            np.testing.assert_array_equal(
                out[s], net.forward_suffix(act_want, target)[0]
            )

    def test_early_target_conv_suffix(self, net, frames):
        """A suffix containing convolutions (early AMC target) stays
        bitwise equal too — the Table II design-space paths."""
        plan = net.inference_plan(max_batch=4)
        target = net.spatial_layers()[1]
        act = plan.run_prefix(frames[:4], target)
        out = plan.run_suffix(act, target)
        for s in range(4):
            act_want = net.forward_prefix(frames[s : s + 1], target)
            np.testing.assert_array_equal(
                out[s], net.forward_suffix(act_want, target)[0]
            )

    def test_full_run_equals_prefix_plus_suffix(self, net, frames):
        plan = net.inference_plan(max_batch=2)
        target = net.last_spatial_layer()
        whole = plan.run(frames[:2])
        split = plan.run_suffix(plan.run_prefix(frames[:2], target), target)
        np.testing.assert_array_equal(whole, split)


class TestScratchReuse:
    def test_repeated_calls_are_deterministic(self, net, frames):
        plan = net.inference_plan(max_batch=4)
        first = plan.run(frames[:4])
        second = plan.run(frames[:4])
        assert first is not second
        np.testing.assert_array_equal(first, second)

    def test_results_are_owned_copies(self, net, frames):
        """Returned arrays must not alias reused scratch buffers."""
        plan = net.inference_plan(max_batch=2)
        first = plan.run(frames[:2]).copy()
        live = plan.run(frames[:2])
        plan.run(frames[2:4])  # overwrite scratch with different inputs
        np.testing.assert_array_equal(live, first)

    def test_buffers_persist_across_calls(self, net, frames):
        plan = net.inference_plan(max_batch=4)
        convs = [s for s in plan._steps if hasattr(s, "cols")]
        before = [id(s.cols) for s in convs]
        plan.run(frames[:4])
        plan.run(frames[:2])
        assert [id(s.cols) for s in convs] == before

    def test_smaller_batches_reuse_capacity(self, net, frames):
        plan = net.inference_plan(max_batch=8)
        for batch in (8, 1, 5, 2):
            out = plan.run(frames[:batch])
            for s in range(batch):
                np.testing.assert_array_equal(
                    out[s], net.forward(frames[s : s + 1])[0]
                )


class TestFloat32:
    def test_outputs_close_and_float32(self, net, frames):
        plan = net.inference_plan(max_batch=4, dtype="float32")
        out = plan.run(frames[:4])
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, net.forward(frames[:4]), rtol=2e-4, atol=2e-4
        )

    def test_distinct_cache_entries(self, net):
        p64 = net.inference_plan(max_batch=2)
        p32 = net.inference_plan(max_batch=2, dtype="float32")
        assert p64 is not p32
        assert net.inference_plan(max_batch=2) is p64
        assert net.inference_plan(max_batch=2, dtype="float32") is p32


class TestFusedProbe:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_verdict_independent_of_blas_pool(self, net, dtype):
        """A plan caches its fused-GEMM verdict per batch size and shares
        it between offline calls (the caller's BLAS pool) and runtime
        steps (one thread), so the verdict must not depend on the pool."""
        plan = InferencePlan(net, max_batch=16, dtype=dtype)
        steps = [s for s in plan._steps if hasattr(s, "_probe_fused")]
        assert steps

        def verdicts():
            return [
                step._probe_fused(step._operands()[0],
                                  getattr(step, "rows", 1), batch)
                for step in steps for batch in range(2, 17)
            ]

        default_pool = verdicts()
        with single_blas_thread():
            assert verdicts() == default_pool


class TestPlanCache:
    def test_one_plan_per_dtype_grows_in_place(self, net):
        plan = net.inference_plan(max_batch=3)
        assert net.inference_plan(max_batch=3) is plan
        # A larger request grows the same plan instead of compiling a new
        # one; a smaller request reuses it at its grown capacity.
        assert net.inference_plan(max_batch=4) is plan
        assert plan.max_batch >= 4
        assert net.inference_plan(max_batch=2) is plan
        assert plan.max_batch >= 4

    def test_load_state_dict_invalidates(self, net):
        plan = net.inference_plan(max_batch=1)
        net.load_state_dict(net.state_dict())
        assert net.inference_plan(max_batch=1) is not plan

    def test_plans_follow_inplace_weight_updates(self, frames):
        """float64 plans read live parameters, so in-place optimizer-style
        updates are picked up without recompilation."""
        net = get_trained_network("mini_fasterm")
        plan = net.inference_plan(max_batch=1)
        before = plan.run(frames[:1])
        layer = net.layers[0]
        layer.params["weight"] += 0.01
        try:
            after = plan.run(frames[:1])
            want = net.forward(frames[:1])
            np.testing.assert_array_equal(after, want)
            assert not np.array_equal(after, before)
        finally:
            layer.params["weight"] -= 0.01


class TestCapacityChanges:
    """reserve()/shrink(): occupancy flexibility without recompilation."""

    def test_reserve_bit_identical_at_every_occupancy(self, net, frames):
        plan = InferencePlan(net, max_batch=2)
        serial = [net.forward(frames[s : s + 1])[0] for s in range(8)]
        plan.reserve(8)
        assert plan.max_batch == 8
        for occupancy in range(1, 9):
            out = plan.run(frames[:occupancy])
            for s in range(occupancy):
                np.testing.assert_array_equal(out[s], serial[s])

    def test_prefix_suffix_bit_identical_after_growth(self, net, frames):
        plan = InferencePlan(net, max_batch=1).reserve(6)
        target = net.last_spatial_layer()
        for occupancy in range(1, 7):
            act = plan.run_prefix(frames[:occupancy], target)
            out = plan.run_suffix(act, target)
            for s in range(occupancy):
                act_want = net.forward_prefix(frames[s : s + 1], target)
                np.testing.assert_array_equal(act[s], act_want[0])
                np.testing.assert_array_equal(
                    out[s], net.forward_suffix(act_want, target)[0]
                )

    def test_shrink_releases_then_regrows(self, net, frames):
        plan = InferencePlan(net, max_batch=6)
        want = plan.run(frames[:6]).copy()
        plan.shrink(2)
        assert plan.max_batch == 2
        with pytest.raises(ValueError):
            plan.run(frames[:3])
        np.testing.assert_array_equal(plan.run(frames[:2]), want[:2])
        plan.reserve(6)
        np.testing.assert_array_equal(plan.run(frames[:6]), want)

    def test_float32_snapshots_survive_resize(self, net, frames):
        plan = InferencePlan(net, max_batch=2, dtype="float32")
        want = plan.run(frames[:2]).copy()
        plan.reserve(5).shrink(2)
        np.testing.assert_array_equal(plan.run(frames[:2]), want)

    def test_reserve_noop_when_large_enough(self, net):
        plan = InferencePlan(net, max_batch=4)
        convs = [id(s.cols) for s in plan._steps if hasattr(s, "cols")]
        plan.reserve(3)
        assert plan.max_batch == 4
        assert [id(s.cols) for s in plan._steps if hasattr(s, "cols")] == convs

    def test_bad_capacity_rejected(self, net):
        plan = InferencePlan(net, max_batch=1)
        with pytest.raises(ValueError):
            plan.reserve(0)
        with pytest.raises(ValueError):
            plan.shrink(0)


class TestValidation:
    def test_batch_over_capacity_rejected(self, net, frames):
        plan = InferencePlan(net, max_batch=2)
        with pytest.raises(ValueError):
            plan.run(frames[:3])

    def test_wrong_shape_rejected(self, net):
        plan = net.inference_plan(max_batch=1)
        with pytest.raises(ValueError):
            plan.run(np.zeros((1, 1, 32, 32)))

    def test_empty_batch_rejected(self, net):
        plan = net.inference_plan(max_batch=1)
        with pytest.raises(ValueError):
            plan.run(np.zeros((0, 1, 64, 64)))

    def test_bad_dtype_rejected(self, net):
        with pytest.raises(ValueError):
            InferencePlan(net, max_batch=1, dtype="float16")

    def test_bad_capacity_rejected(self, net):
        with pytest.raises(ValueError):
            InferencePlan(net, max_batch=0)
