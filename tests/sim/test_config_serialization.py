"""SimConfig canonical serialization and cache-key stability."""

import dataclasses
import json

import pytest

from repro.sim import SimConfig
from repro.sim.campaign.job import Job


def _perturbed_value(config, field):
    current = getattr(config, field.name)
    if isinstance(current, bool):
        return not current
    if isinstance(current, frozenset):
        return frozenset({12345})
    if isinstance(current, dict):
        return {"perturbed": 1}
    if isinstance(current, int):
        return (current or 0) + 7
    if isinstance(current, str):
        return current + "_x"
    if current is None:
        return 17
    raise AssertionError(f"unhandled field type for {field.name}")


def test_equal_configs_share_cache_key():
    assert (SimConfig.msp(16).cache_key()
            == SimConfig.msp(16).cache_key())
    assert (SimConfig.baseline().cache_key()
            == SimConfig.baseline().cache_key())


@pytest.mark.parametrize(
    "field", dataclasses.fields(SimConfig), ids=lambda f: f.name)
def test_every_field_perturbs_cache_key(field):
    base = SimConfig.msp(16)
    changed = base.with_(**{field.name: _perturbed_value(base, field)})
    if field.name == "label_override":
        # Presentation-only: the same machine under a different
        # display label must share cache entries.
        assert changed.cache_key() == base.cache_key()
    else:
        assert changed.cache_key() != base.cache_key()


def test_to_dict_roundtrip():
    config = SimConfig.cpr(registers=256).with_(
        exception_ordinals=frozenset({10, 70}),
        predictor_kwargs={"bits": 12})
    clone = SimConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert clone == config
    assert clone.cache_key() == config.cache_key()
    assert isinstance(clone.exception_ordinals, frozenset)


def test_from_dict_ignores_unknown_keys():
    data = SimConfig.baseline().to_dict()
    data["from_the_future"] = 1
    assert SimConfig.from_dict(data) == SimConfig.baseline()


#: ``cache_key()`` prefixes recorded while ``SimConfig`` still had a
#: ``codegen`` field (which the key excluded): dropping the field must
#: not move any stored result, checkpoint or profile.
PINNED_KEY_PREFIXES = {
    "baseline": (SimConfig.baseline, "238000e1b8d030cc"),
    "cpr": (SimConfig.cpr, "80d6d7b2cab40b87"),
    "msp16": (lambda: SimConfig.msp(16), "f1775dc75c4d1faa"),
    "msp_ideal": (SimConfig.msp_ideal, "0f33a6150f4e16f4"),
}


@pytest.mark.parametrize("machine", sorted(PINNED_KEY_PREFIXES))
def test_payloads_with_retired_codegen_field_keep_their_key(machine):
    """Spool, journal and store entries written before the ``codegen``
    field was removed carry ``"codegen": false`` or ``true`` in their
    config; both load through ``SimConfig.from_dict`` and
    ``Job.from_dict`` onto today's config and key."""
    make, prefix = PINNED_KEY_PREFIXES[machine]
    config = make()
    assert config.cache_key().startswith(prefix)
    job = Job("gzip", config, 5000)
    for flag in (False, True):
        old = json.loads(json.dumps(config.to_dict()))
        old["codegen"] = flag
        loaded = SimConfig.from_dict(old)
        assert loaded == config
        assert loaded.cache_key() == config.cache_key()
        old_job = job.to_dict()
        old_job["config"] = old
        assert Job.from_dict(old_job).cache_key() == job.cache_key()


def test_key_is_order_independent():
    a = SimConfig.baseline().with_(
        exception_ordinals=frozenset({3, 1, 2}))
    b = SimConfig.baseline().with_(
        exception_ordinals=frozenset({2, 3, 1}))
    assert a.cache_key() == b.cache_key()
