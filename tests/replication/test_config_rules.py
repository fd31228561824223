"""The replication configs refuse a broken field with a typed error
naming the field (declared ``Rule``s, as every other config)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)


@pytest.mark.parametrize("field, value", [
    ("group", ""),
    ("checkpoint_interval_requests", 0),
    ("checkpoint_interval_requests", 2.5),
    ("checkpoint_interval_requests", True),
    ("checkpoint_delta_fraction", 0.0),
    ("checkpoint_delta_fraction", 1.5),
    ("checkpoint_delta_fraction", math.nan),
])
def test_replication_config_refuses(field, value):
    fields = {"style": ReplicationStyle.WARM_PASSIVE, "group": "g",
              field: value}
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        ReplicationConfig(**fields)


@pytest.mark.parametrize("field, value", [
    ("retry_timeout_us", 0),
    ("retry_timeout_us", math.inf),
    ("max_retries", -1),
    ("max_retries", 1.0),
])
def test_client_replication_config_refuses(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} must be"):
        ClientReplicationConfig(group="g", **{field: value})


def test_defaults_and_bounds_are_admitted():
    ReplicationConfig(style=ReplicationStyle.ACTIVE, group="g",
                      checkpoint_delta_fraction=1.0)
    ClientReplicationConfig(group="g", max_retries=0)
