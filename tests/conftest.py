import json

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rand_tensor(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


def strict_json(text):
    """Parse `text` as strict JSON: a NaN, Infinity or -Infinity token fails."""

    def reject(token):
        raise ValueError(f"non-finite token {token} is not JSON")

    return json.loads(text, parse_constant=reject)
