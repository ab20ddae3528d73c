import math

import pytest
from hypothesis import example, given, strategies as st

from logtrust import (
    DEFAULT_TRUST_MODEL,
    FixedStepTrust,
    MAX_TRUST,
    Log,
    LogRole,
    MultiplicativeTrust,
    Obligation,
    OriginKey,
    PerformedEdit,
    TrustModel,
    Verb,
    local_trust_assessment,
    parse_trust_model,
)


def assessed(*offenders, model=DEFAULT_TRUST_MODEL, assessor=""):
    """The trust table of an audit of a copy of P1's document in which P1
    forbade each offender to comment and each offender commented anyway,
    one action per entry of ``offenders``, in that order."""
    edits = [PerformedEdit(1, Verb.CREATE, "P1")]
    edits += [PerformedEdit(2 + i, Verb.COMMENT, peer) for i, peer in enumerate(offenders)]
    comm = Log.from_events(
        LogRole.COMM,
        [Obligation(1, Verb.COMMENT, False, "P1", peer, OriginKey("P1", peer, 1)) for peer in set(offenders)],
    )
    report = local_trust_assessment(Log.from_events(LogRole.EDIT, edits), comm, None, assessor, model)
    assert len(report.violations) == len(offenders)
    return report.trust


def test_multiplicative_halves_by_default():
    model = MultiplicativeTrust()
    assert model.max_value == MAX_TRUST == 1.0
    assert model.on_violation(1.0) == 0.5
    assert model.on_violation(0.5) == 0.25


def test_fixed_step_floors_at_zero():
    model = FixedStepTrust(0.4)
    assert model.on_violation(1.0) == pytest.approx(0.6)
    assert model.on_violation(0.3) == 0.0


def test_model_parameter_validation():
    factor = "factor must lie strictly between 0 and 1"
    delta = r"^delta must lie in \(0, 1\]"
    max_value = r"max_value must lie in \(0, 1\]"
    for make, message in (
        (lambda: MultiplicativeTrust(0.0), factor),
        (lambda: MultiplicativeTrust(1.0), factor),
        (lambda: MultiplicativeTrust(max_value=0.0), max_value),
        (lambda: MultiplicativeTrust(max_value=1.5), max_value),
        (lambda: FixedStepTrust(0.0), delta),
        (lambda: FixedStepTrust(1.5), delta),
        (lambda: FixedStepTrust(max_value=0.0), max_value),
        (lambda: FixedStepTrust(max_value=1.5), max_value),
    ):
        with pytest.raises(ValueError, match=message):
            make()
    # a step below the float spacing at max_value leaves full trust unchanged
    assert 1.0 - 1e-17 == 1.0
    with pytest.raises(ValueError, match=r"delta must be at least 2\.22"):
        FixedStepTrust(1e-17)
    with pytest.raises(ValueError, match=r"delta must be at least 1\.11"):
        FixedStepTrust(math.ulp(0.5) / 2, max_value=0.5)
    smallest = FixedStepTrust(math.ulp(1.0))
    assert smallest.on_violation(1.0) < 1.0


def test_apply_violations_one_decrement_per_instance():
    assert assessed("P2", "P2", model=MultiplicativeTrust()) == {"P1": 1.0, "P2": 0.25}
    for model in (MultiplicativeTrust(0.3), FixedStepTrust(0.35, max_value=0.9)):
        value = model.max_value
        for count in range(1, 5):
            value = model.on_violation(value)
            assert assessed(*["P2"] * count, model=model)["P2"] == value


def test_apply_violations_unknown_peer_starts_full():
    # P9 is named only by its violation and the forbid that condemns it
    assert assessed("P9", model=MultiplicativeTrust()) == {"P1": 1.0, "P9": 0.5}
    model = MultiplicativeTrust(max_value=0.8)
    assert assessed("P9", model=model) == {"P1": 0.8, "P9": model.on_violation(0.8)}


def test_apply_violations_empty_list_is_identity():
    for model in (DEFAULT_TRUST_MODEL, FixedStepTrust(max_value=0.6)):
        assert assessed(model=model, assessor="P3") == {"P1": model.max_value, "P3": model.max_value}
    # a permitted action lowers nobody
    edit = Log.from_events(
        LogRole.EDIT, [PerformedEdit(1, Verb.CREATE, "P1"), PerformedEdit(2, Verb.COMMENT, "P2")]
    )
    comm = Log.from_events(
        LogRole.COMM, [Obligation(1, Verb.COMMENT, True, "P1", "P2", OriginKey("P1", "P2", 1))]
    )
    assert local_trust_assessment(edit, comm).trust == {"P1": 1.0, "P2": 1.0}


def test_apply_violations_order_independent():
    # which offender acted first does not matter; the order of one copy's
    # folds is checked against the oracle in test_incremental_audit.py
    for model in (MultiplicativeTrust(), FixedStepTrust(0.3)):
        forward = assessed("P2", "P3", "P2", model=model)
        assert forward == assessed("P2", "P2", "P3", model=model)
        assert forward == assessed("P3", "P2", "P2", model=model)


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
