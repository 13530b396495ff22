"""The benchmark's traced run replaces vdo functions and methods by looking
them up in their owner's __dict__. A rename there would only break a traced
bench run; this test makes it break the test suite."""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.mark.parametrize("role", ["verifier", "prover"])
def test_every_hook_point_exists(tracing, role):
    for owner, attr, _name, _after in tracing.Tracer(role)._targets():
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    for attr in ("_hash_leaf", "_hash_node", "_hash_header"):
        assert attr in tracing.commitment.__dict__, attr
