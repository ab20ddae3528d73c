import math

import pytest
from hypothesis import example, given, strategies as st

from logtrust import (
    FixedStepTrust,
    MAX_TRUST,
    MultiplicativeTrust,
    Obligation,
    OriginKey,
    TrustModel,
    Verb,
    Violation,
    apply_violations,
    initial_trust,
    parse_trust_model,
)


def forbidden(offender, action_clock=2, forbid_clock=1, grantor="P1"):
    forbid = Obligation(
        forbid_clock, Verb.COMMENT, False, grantor, offender,
        OriginKey(grantor, offender, forbid_clock),
    )
    return Violation(offender, Verb.COMMENT, action_clock, forbid)


def test_initial_trust_is_full():
    assert initial_trust(["P2", "P1"]) == {"P1": 1.0, "P2": 1.0}
    assert MAX_TRUST == 1.0


def test_multiplicative_halves_by_default():
    model = MultiplicativeTrust()
    assert model.max_value == 1.0
    assert model.on_violation(1.0) == 0.5
    assert model.on_violation(0.5) == 0.25


def test_fixed_step_floors_at_zero():
    model = FixedStepTrust(0.4)
    assert model.on_violation(1.0) == pytest.approx(0.6)
    assert model.on_violation(0.3) == 0.0


def test_model_parameter_validation():
    with pytest.raises(ValueError):
        MultiplicativeTrust(0.0)
    with pytest.raises(ValueError):
        MultiplicativeTrust(1.0)
    with pytest.raises(ValueError):
        FixedStepTrust(0.0)
    with pytest.raises(ValueError):
        FixedStepTrust(1.5)
    # a step below the float spacing at max_value leaves full trust unchanged
    assert 1.0 - 1e-17 == 1.0
    with pytest.raises(ValueError):
        FixedStepTrust(1e-17)
    with pytest.raises(ValueError):
        FixedStepTrust(math.ulp(0.5) / 2, max_value=0.5)
    smallest = FixedStepTrust(math.ulp(1.0))
    assert smallest.on_violation(1.0) < 1.0


def test_apply_violations_one_decrement_per_instance():
    trust = {"P1": 1.0, "P2": 1.0}
    updated = apply_violations(
        trust, [forbidden("P2"), forbidden("P2", action_clock=3)], MultiplicativeTrust()
    )
    assert updated == {"P1": 1.0, "P2": 0.25}
    assert trust["P2"] == 1.0, "input table must not be mutated"


def test_apply_violations_unknown_peer_starts_full():
    updated = apply_violations({}, [forbidden("P9")], MultiplicativeTrust())
    assert updated == {"P9": 0.5}


def test_apply_violations_empty_list_is_identity():
    table = {"P1": 0.5, "P2": 1.0}
    assert apply_violations(table, []) == table


def test_apply_violations_order_independent():
    violations = [
        forbidden("P2"),
        forbidden("P3"),
        forbidden("P2", action_clock=4),
    ]
    for model in (MultiplicativeTrust(), FixedStepTrust(0.3)):
        forward = apply_violations({}, violations, model)
        backward = apply_violations({}, list(reversed(violations)), model)
        assert forward == backward


def test_parse_trust_model():
    assert parse_trust_model("multiplicative") == MultiplicativeTrust()
    assert parse_trust_model("multiplicative:0.25") == MultiplicativeTrust(0.25)
    assert parse_trust_model("fixed") == FixedStepTrust()
    assert parse_trust_model("fixed:0.1") == FixedStepTrust(0.1)
    for bad in ("linear", "multiplicative:2", "fixed:zero", ""):
        with pytest.raises(ValueError):
            parse_trust_model(bad)


def test_models_satisfy_protocol():
    assert isinstance(MultiplicativeTrust(), TrustModel)
    assert isinstance(FixedStepTrust(), TrustModel)


@given(
    st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(MultiplicativeTrust),
        st.floats(math.ulp(1.0), 1.0).map(FixedStepTrust),
    )
)
@example(MultiplicativeTrust(0.25))
@example(FixedStepTrust(0.3))
def test_describe_round_trips(model):
    assert parse_trust_model(model.describe()) == model


def test_describe_keeps_short_labels():
    assert MultiplicativeTrust().describe() == "multiplicative:0.5"
    assert FixedStepTrust().describe() == "fixed:0.2"
    assert FixedStepTrust(1.0).describe() == "fixed:1"
    assert MultiplicativeTrust(0.123456789).describe() == "multiplicative:0.123456789"


SUBNORMALS = st.integers(1, 2**52 - 1).map(lambda k: k * math.ulp(0.0))


@given(SUBNORMALS, st.sampled_from([0.5, 0.75, 0.9, 0.999, 1 - 2**-53]))
@example(math.ulp(0.0), 0.75)
@example(2 * math.ulp(0.0), 0.75)
def test_multiplicative_lowers_every_subnormal(current, factor):
    # The TrustModel contract: strictly decreasing for positive values,
    # also where the product rounds back up to the input.
    lowered = MultiplicativeTrust(factor).on_violation(current)
    assert 0.0 <= lowered < current


@pytest.mark.parametrize("factor", [0.5, 0.75, 0.9])
def test_multiplicative_reaches_zero_and_keeps_plain_products(factor):
    # From full trust the value falls to 0, and wherever the plain product
    # already lowers it the result is that product, bit for bit.
    model, value = MultiplicativeTrust(factor), 1.0
    for _ in range(20_000):
        if value == 0.0:
            break
        lowered = model.on_violation(value)
        if value * factor < value:
            assert lowered == value * factor
        value = lowered
    assert value == 0.0
