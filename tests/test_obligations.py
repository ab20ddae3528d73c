import pytest

from logtrust import InternallyConflictingSetError, ObligationAtom, Verb, validate_set

A = ObligationAtom


def test_validate_set_rejects_internal_conflicts():
    atoms = [A(Verb.READ, True), A(Verb.READ, False), A(Verb.SHARE, True)]
    with pytest.raises(InternallyConflictingSetError):
        validate_set(atoms)
    assert validate_set([A(Verb.READ, True)]) == frozenset({A(Verb.READ, True)})
