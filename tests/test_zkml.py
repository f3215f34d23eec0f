"""zkML layer: quantised inference, circuit accounting, cost model,
planner, and the trace machinery."""

import numpy as np
import pytest

from repro.core.planner import MixerPlanner, PlanResult
from repro.nn import (
    TextTransformer,
    VisionTransformer,
    make_nlp_task,
    make_vision_dataset,
    train_model,
    uniform_plan,
)
from repro.nn.transformer import (
    ModelConfig,
    StageConfig,
    metaformer_imagenet_config,
    vit_cifar_config,
)
from repro.zkml import (
    CostModel,
    QuantizedTransformer,
    account_model,
    account_trace,
    compile_block_circuit,
    gadget_unit_costs,
    matmul_cost,
    synthesize_trace,
)
from repro.zkml.compile import CircuitCost
from repro.zkml.costmodel import PrimitiveRates, _best_of, measure_rates
from repro.gadgets.matmul import STRATEGIES, MatmulCircuit


@pytest.fixture(scope="module")
def trained_vision():
    data = make_vision_dataset("cifar10", 600, seed=3)
    rng = np.random.default_rng(0)
    model = VisionTransformer(
        16, 4, dim=48, heads=4, num_classes=8,
        mixer_plan=uniform_plan("softmax", 2), rng=rng,
    )
    train_model(model, data, epochs=10, lr=0.08, seed=1)
    return model, data


class TestQuantizedInference:
    def test_quantized_close_to_float(self, trained_vision):
        model, data = trained_vision
        from repro.nn.train import evaluate

        float_acc = evaluate(model, data.test_x, data.test_y)
        q = QuantizedTransformer(model)
        q_acc = q.accuracy(data.test_x, data.test_y)
        # Without poly-GELU fine-tuning some drop is expected, but the
        # quantised path must stay in the same ballpark.
        assert q_acc >= float_acc - 0.25
        assert q_acc > 0.3

    def test_trace_records_matmuls(self, trained_vision):
        model, data = trained_vision
        q = QuantizedTransformer(model)
        q.trace.matmuls.clear()
        q.predict(data.test_x[:2])
        layers = {m.layer for m in q.trace.matmuls}
        assert "embed" in layers
        assert "head" in layers
        assert any("qkv" in layer for layer in layers)
        assert q.trace.total_mults() > 0

    def test_text_model_quantises(self):
        data, classes = make_nlp_task("qnli", 200, seed=1)
        rng = np.random.default_rng(0)
        model = TextTransformer(
            24, 16, 32, 4, classes, uniform_plan("scaling", 2), rng
        )
        train_model(model, data, epochs=4, lr=0.08)
        q = QuantizedTransformer(model)
        acc = q.accuracy(data.test_x, data.test_y)
        assert 0.0 <= acc <= 1.0

    def test_all_mixers_run_quantised(self):
        rng = np.random.default_rng(1)
        for mixer in ("softmax", "scaling", "pooling", "linear"):
            model = VisionTransformer(
                16, 4, 16, 2, 4, uniform_plan(mixer, 1),
                np.random.default_rng(2),
            )
            q = QuantizedTransformer(model)
            pred = q.predict(rng.normal(size=(2, 16, 16)))
            assert pred.shape == (2,)


class TestMatmulCostClosedForms:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("shape", [(2, 3, 2), (3, 4, 2), (1, 5, 3)])
    def test_matches_real_builder(self, strategy, shape):
        a, n, b = shape
        cost = matmul_cost(a, n, b, strategy)
        stats = MatmulCircuit(a, n, b, strategy).cs.stats()
        assert cost.constraints == stats.num_constraints
        assert cost.wires == stats.num_wires - 1  # builder counts ~one
        assert cost.a_wires == stats.a_wires
        assert cost.terms == stats.total_terms

    def test_cost_addition(self):
        c = matmul_cost(2, 2, 2, "vanilla") + matmul_cost(2, 2, 2, "vanilla")
        assert c.constraints == 2 * matmul_cost(2, 2, 2, "vanilla").constraints

    def test_cost_scaling(self):
        c = matmul_cost(2, 2, 2, "vanilla").scaled(3)
        assert c.terms == 3 * matmul_cost(2, 2, 2, "vanilla").terms


class TestGadgetUnitCosts:
    def test_units_positive_and_cached(self):
        units = gadget_unit_costs(12)
        for key in ("softmax_per_elem", "layernorm_per_elem", "gelu",
                    "rescale"):
            assert units[key].constraints > 0, key
        assert gadget_unit_costs(12) is units

    def test_softmax_linear_extrapolation(self):
        """Unit costs must predict a width-24 softmax from 8/16 builds."""
        from repro.r1cs import ConstraintSystem
        from repro.gadgets.nonlinear import softmax_gadget
        from repro.field.prime_field import BN254_FR_MODULUS as R

        units = gadget_unit_costs(12)
        predicted = (
            units["softmax_base"].constraints
            + 24 * units["softmax_per_elem"].constraints
        )
        cs = ConstraintSystem()
        wires = [
            cs.alloc(f"x{i}", (i * 100) % R) for i in range(24)
        ]
        softmax_gadget(cs, wires, 12)
        actual = len(cs.constraints)
        assert abs(predicted - actual) / actual < 0.02


class TestModelAccounting:
    def test_synthesized_trace_matches_runtime_trace(self, trained_vision):
        model, data = trained_vision
        q = QuantizedTransformer(model)
        q.trace.matmuls.clear()
        q.trace.nonlinears.clear()
        q.predict(data.test_x[:1])
        runtime_shapes = sorted(
            (m.a, m.n, m.b) for m in q.trace.matmuls if m.layer != "embed"
        )
        cfg = ModelConfig(
            "probe",
            [StageConfig(layers=2, dim=48, tokens=16, heads=4)],
            num_classes=8,
        )
        trace = synthesize_trace(cfg, ["softmax", "softmax"], mlp_ratio=2)
        synth_shapes = sorted((m.a, m.n, m.b) for m in trace.matmuls)
        assert runtime_shapes == synth_shapes

    def test_crpc_psq_beats_vanilla_on_models(self):
        cfg = vit_cifar_config()
        plan = uniform_plan("softmax", cfg.total_layers)
        zkvc = account_model(cfg, plan, "crpc_psq")
        vanilla = account_model(cfg, plan, "vanilla")
        assert vanilla.matmul.constraints > 50 * zkvc.matmul.constraints

    def test_softmax_free_cheaper(self):
        cfg = vit_cifar_config()
        l = cfg.total_layers
        sm = account_model(cfg, uniform_plan("softmax", l)).total.constraints
        po = account_model(cfg, uniform_plan("pooling", l)).total.constraints
        sc = account_model(cfg, uniform_plan("scaling", l)).total.constraints
        assert po < sc < sm

    def test_plan_length_validated(self):
        cfg = vit_cifar_config()
        with pytest.raises(ValueError):
            account_model(cfg, ["softmax"])


# Frozen primitive rates (rounded from a reference run of
# ``measure_rates()`` on the baseline machine).  The threshold tests
# below are about the *model*, not this machine's clock: with synthetic
# rates they are exactly reproducible on any CI runner, where the old
# wall-clock calibration made the predicted CRPC ratio jitter with cache
# and scheduler state.
REFERENCE_RATES = PrimitiveRates(
    g1_mul_s=1.3e-3,
    g1_msm_per_point_s=3.2e-4,
    g2_mul_s=9.5e-3,
    field_mul_s=4.4e-7,
    ntt_per_elem_s=7.3e-6,
    pairing_s=0.012,
    g1_fixed_msm_per_point_s=1.5e-4,
    g2_fixed_msm_per_point_s=3.6e-4,
)


class TestCostModel:
    @pytest.fixture(scope="class")
    def model(self):
        return CostModel(rates=REFERENCE_RATES)

    def test_prove_time_monotone_in_size(self, model):
        small = matmul_cost(4, 8, 4, "vanilla")
        large = matmul_cost(8, 16, 8, "vanilla")
        assert model.groth16_prove_time(large) > model.groth16_prove_time(
            small
        )
        assert model.spartan_prove_time(large) > model.spartan_prove_time(
            small
        )

    def test_crpc_predicted_faster(self, model):
        a, n, b = 32, 64, 32
        vanilla = model.groth16_prove_time(matmul_cost(a, n, b, "vanilla"))
        zkvc = model.groth16_prove_time(matmul_cost(a, n, b, "crpc_psq"))
        # Paper: 9-12x at full scale; at this size the model predicts ~30x
        # (deterministic under the frozen reference rates).
        assert vanilla / zkvc > 3.5

    def test_crpc_speedup_grows_with_size(self, model):
        ratios = []
        for a, n, b in [(8, 16, 8), (16, 32, 16), (32, 64, 32)]:
            v = model.groth16_prove_time(matmul_cost(a, n, b, "vanilla"))
            z = model.groth16_prove_time(matmul_cost(a, n, b, "crpc_psq"))
            ratios.append(v / z)
        assert ratios == sorted(ratios)

    def test_calibration_fixes_prediction(self, model):
        cost = matmul_cost(4, 8, 4, "crpc_psq")
        factor = model.calibrate_against("groth16", cost, measured_prove_s=1.0)
        assert model.groth16_prove_time(cost) == pytest.approx(1.0)
        assert factor > 0

    def test_blinding_bases_priced_at_fixed_base_rates(self):
        """The five blinding points are appended query bases: three G1
        and two G2 points at the fixed-base per-point rates, and no
        scalar multiplication of their own."""
        rates = PrimitiveRates(
            g1_mul_s=100.0, g1_msm_per_point_s=100.0, g2_mul_s=100.0,
            field_mul_s=0.0, ntt_per_elem_s=0.0, pairing_s=0.0,
            g1_fixed_msm_per_point_s=1.0, g2_fixed_msm_per_point_s=10.0,
        )
        cost = matmul_cost(4, 8, 4, "crpc_psq")
        domain = max(2, 1 << (cost.constraints - 1).bit_length())
        g1_points = cost.a_wires + cost.b_wires + cost.wires + domain + 3
        g2_points = cost.b_wires + 2
        assert CostModel(rates=rates).groth16_prove_time(cost) == (
            pytest.approx(g1_points * 1.0 + g2_points * 10.0)
        )

    def test_proof_sizes(self, model):
        assert model.groth16_proof_size() == 256
        assert model.spartan_proof_size(matmul_cost(4, 8, 4, "crpc_psq")) > 256


class TestMeasuredRates:
    """The only tests that touch the wall clock — kept to generous,
    machine-independent bounds (positivity and a structural ordering that
    holds on any hardware)."""

    def test_rates_positive_and_msm_amortises(self):
        r = measure_rates()
        assert r.g1_mul_s > 0 and r.field_mul_s > 0 and r.pairing_s > 0
        assert r.g1_msm_per_point_s < r.g1_mul_s  # MSM amortises

    def test_rates_cached(self):
        assert measure_rates() is measure_rates()

    def test_best_of_takes_minimum_under_fake_counter(self):
        """Min-of-repeats logic, driven by a deterministic monotonic
        counter instead of the wall clock.  ``_best_of`` reads the timer
        twice per run; with run durations of 5, 1, and 3 ticks the
        minimum (1) must win — noise is one-sided, so min is the stable
        estimator."""
        # (t0, t1) per run: durations 5, 1, 3
        times = iter([0, 5, 10, 11, 20, 23])
        assert _best_of(lambda: None, repeats=3, timer=lambda: next(times)) == 1


class TestPlanner:
    def test_imagenet_plan_keeps_late_softmax(self):
        planner = MixerPlanner(metaformer_imagenet_config())
        res = planner.plan(0.4)
        assert isinstance(res, PlanResult)
        # Early (long-sequence) stages lose softmax, late stages keep it.
        assert res.plan[0] != "softmax"
        assert res.plan[-1] == "softmax"
        assert res.est_constraints <= res.budget_constraints

    def test_budget_monotone_utility(self):
        planner = MixerPlanner(vit_cifar_config())
        low = planner.plan(0.55)
        high = planner.plan(0.9)
        assert high.utility >= low.utility
        assert high.est_constraints >= low.est_constraints

    def test_infeasible_budget_clamped(self):
        planner = MixerPlanner(vit_cifar_config())
        res = planner.plan(0.0)  # clamps to the all-cheapest plan
        assert all(m == "pooling" for m in res.plan)


class TestBlockCircuit:
    def test_compiles_and_satisfies(self):
        cs = compile_block_circuit(tokens=3, dim=8, frac_bits=8)
        assert cs.is_satisfied(), cs.first_unsatisfied()
        assert len(cs.constraints) > 100
