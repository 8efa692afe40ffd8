import math
import pickle

import numpy as np
import pytest

from conftest import (
    constant_law,
    linear_law,
    linear_shape,
    monomial,
    monomial_spec,
    separable_profile,
    separable_shape,
    separated_spec,
    sin_shape,
    sinh_shape,
)
from fluxheat.bench import run_case
from fluxheat.closed_form import (
    ConstructionError,
    flux_closed_form,
    separated_components,
    stationary_solution,
)
from fluxheat.problem import (
    FluxKind,
    FluxLaw,
    InitialProfile,
    ProblemSpec,
    ProfileKind,
    SchemaError,
    ShapeKind,
    SourceShape,
    TimeFunction,
    Variant,
    config_id,
    flux_rate,
    read_object,
    separated_evaluators,
    spec_from_dict,
    validate,
)
from fluxheat.volterra import forcing_for


# one of each shape and profile kind, the separated ones on every sigma branch
SHAPES = [
    linear_shape(2.0),
    sinh_shape(1.3, 0.7),
    sin_shape(3.0, 0.5),
    separable_shape(2.0, 1.5, 0.5),
    separable_shape(-2.0, 1.5, 0.5),
    separable_shape(0.0, 1.5, 0.5),
    SourceShape(ShapeKind.CONSTANT_ONE),
]
SHAPE_IDS = ["linear", "sinh", "sin", "sep-sinh", "sep-sin", "sep-linear", "one"]
PROFILES = [
    monomial(0.7, 1),
    monomial(0.7, 3),
    monomial(0.7, 2.5),
    InitialProfile(ProfileKind.QUADRATIC, nu=1.5, a=0.5),
    separable_profile(0.7, 2.0, 1.3),
    separable_profile(0.7, -2.0, 1.3),
    separable_profile(0.7, 0.0, 1.3),
]
PROFILE_IDS = ["m1", "m3", "m2.5", "quadratic", "sep-sinh", "sep-sin", "sep-linear"]


class TestShapes:
    def test_evaluation(self):
        assert linear_shape(2.0)(1.5) == 3.0
        assert sinh_shape(1.0, 2.0)(0.7) == pytest.approx(-2 * math.sinh(0.7))
        assert sin_shape(3.0, 0.5)(0.4) == pytest.approx(-0.5 * math.sin(1.2))
        assert SourceShape(ShapeKind.CONSTANT_ONE)(9.0) == 1.0

    def test_separated_branches(self):
        assert separated_evaluators(4.0, 2.0)[0](0.5) == pytest.approx(math.sinh(1.0))
        assert separated_evaluators(-4.0, 2.0)[0](0.5) == pytest.approx(math.sin(1.0))
        assert separated_evaluators(0.0, 2.0)[0](0.5) == 1.0

    @pytest.mark.parametrize("sigma", [2.0, -2.0, 0.0])
    def test_separated_evaluators_are_bitwise(self, sigma):
        # (X, X') is the separated shape at scale 1 and the separated profile at eta 1
        X, X_tilde = separated_evaluators(sigma, 1.5)
        shape, profile = separable_shape(sigma, 1.5), separable_profile(1.0, sigma, 1.5)
        for x in np.linspace(0.0, 12.0, 97).tolist():
            for fn in (shape, profile):
                assert X(x).hex() == fn(x).hex()
                assert X_tilde(x).hex() == fn.derivative(x).hex()

    def test_separated_initial_data(self):
        # X(0) = 0 and X'(0) = delta for every branch
        for sigma in (-2.0, 0.0, 3.0):
            X = separated_evaluators(sigma, 1.7)[0]
            assert X(0.0) == 0.0
            d = 1e-7
            slope = X(d) / d
            assert slope == pytest.approx(1.7, rel=1e-6)

    @pytest.mark.parametrize(
        "fn",
        [
            *SHAPES,
            *(shape.derivative for shape in SHAPES),
            *PROFILES,
            *(h.derivative for h in PROFILES),
        ],
        ids=[
            *SHAPE_IDS,
            *(f"d-{i}" for i in SHAPE_IDS),
            *(f"h-{i}" for i in PROFILE_IDS),
            *(f"dh-{i}" for i in PROFILE_IDS),
        ],
    )
    def test_array_arguments(self, fn):
        # arrays map elementwise, constants broadcast, scalars stay Python floats
        x = np.linspace(0.0, 2.0, 7)
        got = fn(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        # numpy's sinh/sin/cosh/cos are not libm's: equal to a few ulps only
        want = np.array([fn(v) for v in x.tolist()])
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
        assert type(fn(0.7)) is float

    @pytest.mark.parametrize(
        "fn", SHAPES + PROFILES, ids=[*SHAPE_IDS, *(f"h-{i}" for i in PROFILE_IDS)]
    )
    def test_evaluators_are_bitwise_call_and_derivative(self, fn):
        value, slope = fn.evaluators()
        for x in np.linspace(0.0, 12.0, 97).tolist() + [1e-300, 0.3]:
            for arg in (x, np.float64(x)):
                assert float(value(arg)).hex() == float(fn(arg)).hex(), arg
                assert float(slope(arg)).hex() == float(fn.derivative(arg)).hex(), arg

    @pytest.mark.parametrize(
        "fn", SHAPES + PROFILES, ids=[*SHAPE_IDS, *(f"h-{i}" for i in PROFILE_IDS)]
    )
    def test_derivatives(self, fn):
        # Phi' and h' against a central difference of Phi and h
        d = 1e-6
        for x in (0.2, 1.1):
            fd = (fn(x + d) - fn(x - d)) / (2 * d)
            assert fn.derivative(x) == pytest.approx(fd, rel=1e-8, abs=1e-9)

    def test_every_kind_is_covered(self):
        assert {shape.kind for shape in SHAPES} == set(ShapeKind)
        assert {h.kind for h in PROFILES} == set(ProfileKind)

    def test_evaluated_spec_pickles(self):
        # evaluating Phi, Phi', h and h' leaves nothing on the spec that pickle refuses
        spec = monomial_spec(sinh_shape(1.3, 0.7), 0.8, 3)
        x = np.linspace(0.0, 2.0, 5)

        def data(s):
            return [s.phi(x), s.phi.derivative(x), s.h(x), s.h.derivative(x)]

        want = data(spec)
        for fn in (spec.phi, spec.phi.derivative, spec.h, spec.h.derivative):
            fn(0.4)
        for fn in (*spec.phi.evaluators(), *spec.h.evaluators(), *spec.evaluators()):
            fn(0.4)
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert [v.tolist() for v in data(back)] == [v.tolist() for v in want]


class TestFluxLaw:
    def test_kinds(self):
        assert FluxLaw(FluxKind.ZERO)(3.0, 1.0) == 0.0
        assert constant_law(2.5)(3.0, 1.0) == 2.5
        assert linear_law(2.0)(3.0, 1.0) == 6.0
        affine = FluxLaw(
            FluxKind.AFFINE,
            f1=TimeFunction.constant(1.0),
            f2=TimeFunction.polynomial([0.0, 1.0]),
        )
        assert affine(2.0, 3.0) == 1.0 + 3.0 * 2.0
        power = FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(2.0))
        assert power(4.0, 1.0) == pytest.approx(4.0)

    def test_power_law_n_zero_ignores_value(self):
        power = FluxLaw(FluxKind.POWER_LAW, n=0.0, f=TimeFunction.constant(3.0))
        assert power(-5.0, 1.0) == 3.0
        # V ** 0.0 is 1.0 for every float V, so F is f(t) to the bit
        f = TimeFunction.constant(-0.0)
        for V in (0.0, -0.0, -5.0, 1e308, math.nan, math.inf, -math.inf, np.float64(math.nan)):
            assert power(V, 1.0).hex() == (3.0).hex()
            assert FluxLaw(FluxKind.POWER_LAW, n=0.0, f=f)(V, 1.0).hex() == (-0.0).hex()

    def test_constant_value_is_the_one_test_of_f_equal_nu(self):
        assert constant_law(2.5).constant_value == 2.5
        assert FluxLaw(FluxKind.POWER_LAW, nu=7.0, n=0.0, f=TimeFunction.constant(2.5)).constant_value == 2.5
        not_constant = (
            FluxLaw(FluxKind.ZERO),
            linear_law(2.5),
            FluxLaw(FluxKind.AFFINE, f1=TimeFunction.constant(2.5), f2=TimeFunction.constant(0.0)),
            FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(2.5)),
            FluxLaw(FluxKind.POWER_LAW, n=0.0, f=TimeFunction.polynomial([2.5])),
            FluxLaw(FluxKind.POWER_LAW, n=0.0),
        )
        assert [law.constant_value for law in not_constant] == [None] * len(not_constant)

    def test_four_kinds(self):
        assert [k.value for k in FluxKind] == ["zero", "linear", "affine", "power_law"]


class TestValidate:
    def test_admissible_case(self):
        assert validate(monomial_spec(linear_shape(), 1.0, 1)) == []

    def test_even_m_closed_form(self):
        # well-posed; odd m is the integral-representation family's rule
        spec = monomial_spec(linear_shape(), 1.0, 2)
        assert validate(spec) == []
        with pytest.raises(ConstructionError, match="m must be odd for polynomial flux"):
            flux_closed_form(spec)

    def test_compatibility_violation(self):
        spec = ProblemSpec(linear_shape(), linear_law(), monomial(1.0, 0))
        violations = validate(spec)
        assert any("h(0+)" in v for v in violations)

    def test_positivity(self):
        spec = monomial_spec(SourceShape(ShapeKind.NEG_SIN, lam=-1.0, mu=1.0), 1.0, 1)
        assert any("lambda" in v for v in validate(spec))
        spec = monomial_spec(SourceShape(ShapeKind.NEG_SIN, lam=1.0, mu=-1.0), 1.0, 1)
        assert any("mu" in v for v in validate(spec))

    def test_zero_law_pairing(self):
        # well-posed; h = eta*x is the stationary family's rule for F = 0
        spec = ProblemSpec(linear_shape(), FluxLaw(FluxKind.ZERO), monomial(2.0, 3))
        assert validate(spec) == []
        with pytest.raises(ConstructionError, match=r"F == 0 requires h = eta\*x"):
            stationary_solution(spec)

    def test_power_law_positivity(self):
        spec = separated_spec(
            1.0, 1.0, -1.0, 1.0, FluxLaw(FluxKind.POWER_LAW, n=0.5, f=TimeFunction.constant(1.0))
        )
        assert any("scale, delta, eta" in v for v in validate(spec))

    def test_power_law_reads_f_not_nu(self):
        # no power-law code reads nu: nu = 0 with a nonzero f is the F of nu = 1
        f = TimeFunction.polynomial([0.25, 0.05])
        laws = [FluxLaw(FluxKind.POWER_LAW, nu=nu, n=0.5, f=f) for nu in (0.0, 1.0)]
        specs = [separated_spec(0.5, 1.0, 1.0, 1.0, law) for law in laws]
        assert [validate(spec) for spec in specs] == [[], []]
        assert laws[0](2.0, 3.0) == laws[1](2.0, 3.0)
        T0, T1 = (separated_components(spec).T for spec in specs)
        assert [T0(t) for t in (0.5, 1.0, 2.0)] == [T1(t) for t in (0.5, 1.0, 2.0)]
        results = [run_case(spec) for spec in specs]
        assert all(result.passed for result in results)
        assert results[0].records == results[1].records

    def test_power_law_zero_factor(self):
        # F = 0 * V^n: the JSON nu = 0, or a zero constant time factor
        for law in (
            FluxLaw(FluxKind.POWER_LAW, nu=0.0, n=0.5, f=TimeFunction.constant(0.0)),
            FluxLaw(FluxKind.POWER_LAW, n=0.0, f=TimeFunction.constant(0.0)),
        ):
            spec = separated_spec(1.0, 1.0, 1.0, 1.0, law)
            assert "power-law flux law requires nu != 0" in validate(spec)

    def test_non_integrable_preset(self):
        bad = TimeFunction(lambda t: 1 / t, lambda t: math.log(t), locally_integrable=False)
        spec = separated_spec(1.0, 1.0, 1.0, 1.0, FluxLaw(FluxKind.AFFINE, f1=bad, f2=bad))
        assert any("integrable" in v for v in validate(spec))


class TestFluxNumbers:
    """b from ``flux_rate``; c and p from the forcing V0 = c t^p."""

    def test_sigma(self):
        # lam * sigma with sigma = lam + nu*mu
        spec = monomial_spec(sinh_shape(1.0, 1.0), 1.0, 1, nu=1.0)
        assert flux_rate(spec) == 2.0

    def test_resonant_delta(self):
        spec = monomial_spec(sin_shape(2.0, 1.0), 1.0, 1, nu=2.0)
        assert flux_rate(spec) == 0.0

    def test_forcing_constant_m3(self):
        forcing = forcing_for(monomial(1.0, 3))
        assert forcing.c == pytest.approx(6.0, rel=1e-14)
        assert forcing.exponent == 1.0

    def test_forcing_constant_m1_is_eta(self):
        assert forcing_for(monomial(-2.5, 1)).c == pytest.approx(-2.5, rel=1e-14)

    def test_no_rate_off_the_linear_law_or_for_phi_one(self):
        power = ProblemSpec(linear_shape(), FluxLaw(FluxKind.POWER_LAW, n=0.5), monomial(1.0, 3))
        assert flux_rate(power) is None
        assert flux_rate(monomial_spec(SourceShape(ShapeKind.CONSTANT_ONE), 1.0, 3)) is None

    def test_separated_rate(self):
        # sigma - scale*nu*delta = 1 - 3*0.5*2
        spec = separated_spec(1.0, 2.0, 3.0, 1.0, linear_law(0.5))
        assert flux_rate(spec) == -2.0


class TestCompanionData:
    """A P_TILDE spec carries the companion problem's data: Phi' and h'."""

    def test_linear_shape_becomes_constant(self):
        spec = monomial_spec(linear_shape(2.0), 1.0, 1, variant=Variant.P_TILDE)
        phi, _ = spec.evaluators()
        for x in (0.0, 0.7, 3.0):
            assert phi(x) == 2.0

    def test_sinh_becomes_cosh(self):
        spec = monomial_spec(sinh_shape(1.5, 2.0), 1.0, 1, variant=Variant.P_TILDE)
        phi, _ = spec.evaluators()
        for x in (0.0, 0.9):
            assert phi(x) == pytest.approx(-2.0 * 1.5 * math.cosh(1.5 * x))

    def test_linear_h_becomes_constant(self):
        spec = monomial_spec(linear_shape(), 3.0, 1, variant=Variant.P_TILDE)
        assert spec.evaluators()[1](0.4) == 3.0

    def test_separated_becomes_delta_cos(self):
        spec = separated_spec(-4.0, 1.5, 1.0, 1.0, linear_law(), variant=Variant.P_TILDE)
        phi, h = spec.evaluators()
        for x in (0.0, 0.6):
            assert phi(x) == pytest.approx(1.5 * math.cos(2.0 * x))
            assert h(x) == pytest.approx(1.5 * math.cos(2.0 * x))

    def test_as_p_flips_the_variant_back(self):
        spec = monomial_spec(linear_shape(), 1.0, 1, variant=Variant.P_TILDE)
        base = spec.as_p()
        assert base.variant is Variant.P
        assert (base.phi, base.flux, base.h) == (spec.phi, spec.flux, spec.h)
        assert base.evaluators()[0](0.7) == pytest.approx(0.7)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_spec_evaluators_are_the_variants_data(self, variant):
        # P reads (Phi, h), the companion problem (Phi', h'), bit for bit
        spec = monomial_spec(sinh_shape(1.3, 0.7), 0.8, 3, variant=variant)
        phi, h = spec.evaluators()
        tilde = variant is Variant.P_TILDE
        want_phi = spec.phi.derivative if tilde else spec.phi
        want_h = spec.h.derivative if tilde else spec.h
        for x in np.linspace(0.0, 3.0, 13).tolist():
            assert phi(x).hex() == want_phi(x).hex()
            assert h(x).hex() == want_h(x).hex()


class TestJsonSchema:
    def case(self):
        return {
            "phi": {"kind": "neg_sin", "lambda": 2.0, "mu": 1.0},
            "flux": {"kind": "linear", "nu": 1.0},
            "h": {"kind": "monomial", "eta": 1.0, "m": 3},
            "variant": "P",
        }

    def test_round_trip(self):
        spec = spec_from_dict(self.case())
        assert spec.phi.kind is ShapeKind.NEG_SIN
        assert spec.h.m == 3.0

    def test_unknown_top_level_field(self):
        case = self.case()
        case["extra"] = 1
        with pytest.raises(SchemaError):
            spec_from_dict(case)

    def test_unknown_nested_field(self):
        case = self.case()
        case["phi"]["rate"] = 1.0
        with pytest.raises(SchemaError):
            spec_from_dict(case)

    def test_missing_kind(self):
        case = self.case()
        del case["flux"]["kind"]
        with pytest.raises(SchemaError):
            spec_from_dict(case)

    def test_unknown_kind(self):
        case = self.case()
        case["h"]["kind"] = "cubic_spline"
        with pytest.raises(SchemaError):
            spec_from_dict(case)

    @pytest.mark.parametrize(
        "path, value",
        [(("phi", "kind"), "cosh"), (("flux", "kind"), None), (("h", "kind"), ["monomial"]),
         (("variant",), "Q"), (("variant",), 1)],
    )
    def test_every_enum_value_is_read_one_way(self, path, value):
        case = self.case()
        node = case
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        where = path[0] if len(path) == 2 else "case"
        with pytest.raises(SchemaError, match=f"^{where} '{path[-1]}' must be one of \\["):
            spec_from_dict(case)

    def test_affine_not_expressible(self):
        case = self.case()
        case["flux"]["kind"] = "affine"
        with pytest.raises(SchemaError, match=r"^affine flux laws are library-level only \(no JSON form\)$"):
            spec_from_dict(case)

    def test_unknown_flux_kind_lists_the_json_names(self):
        case = self.case()
        case["flux"]["kind"] = "quartic"
        with pytest.raises(SchemaError) as err:
            spec_from_dict(case)
        names = "['zero', 'constant', 'linear', 'power_law']"
        assert str(err.value) == f"flux 'kind' must be one of {names}, got 'quartic'"

    @pytest.mark.parametrize("n", [None, 0.0, 0.5, -2.0])
    def test_constant_is_the_power_law_at_n0(self, n):
        case = self.case()
        case["flux"] = {"kind": "constant", "nu": 2.5, **({} if n is None else {"n": n})}
        flux = spec_from_dict(case).flux
        assert (flux.kind, flux.nu, flux.n) == (FluxKind.POWER_LAW, 2.5, 0.0)
        assert flux.f.constant_value == flux.constant_value == 2.5

    def test_reader_messages(self):
        fields = frozenset({"a", "b"})
        assert read_object({"a": 1}, "part", fields, ("a",)) == {"a": 1}
        assert read_object({"anything": 1}, "grid") == {"anything": 1}
        with pytest.raises(SchemaError, match=r"^part must be a JSON object, got list$"):
            read_object([1], "part", fields)
        with pytest.raises(SchemaError, match=r"^unknown fields in part: \['c', 'd'\]$"):
            read_object({"d": 1, "a": 1, "c": 1}, "part", fields, ("a",))
        with pytest.raises(SchemaError, match=r"^missing 'a' in part$"):
            read_object({"b": 1}, "part", fields, ("a",))

    @pytest.mark.parametrize("stem", [5, None, True, ["x"], "", ".", "..", "a/b", "../x", "a\\b", "x\0"])
    def test_config_id_names_a_plain_file(self, stem):
        with pytest.raises(SchemaError, match="config 'id' must be a plain file name"):
            config_id({"id": stem}, "default")

    def test_config_id_default_and_plain_names(self):
        assert config_id({}, "default") == "default"
        for stem in ("x", "ir-phi1-m3", "...", ".hidden", "a b"):
            assert config_id({"id": stem}, "default") == stem

    def test_power_law_carries_constant_factor(self):
        case = self.case()
        case["flux"] = {"kind": "power_law", "nu": 0.25, "n": 0.5}
        case["phi"] = {"kind": "scaled_separable", "sigma": 0.5, "delta": 1.0, "scale": 1.0}
        case["h"] = {"kind": "scaled_separable", "eta": 1.0}
        spec = spec_from_dict(case)
        assert spec.flux.f(3.0) == 0.25
        assert spec.h.sigma == 0.5  # inherited from the source shape
