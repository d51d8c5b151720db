import warnings

import numpy as np
import pytest

# hypothesis imports libcst lazily, in the report hook that prints a
# falsifying example, and that first import warns through
# mypy_extensions.TypedDict; under -W error the warning would turn the
# report into an INTERNALERROR and hide the example, so libcst is imported
# once here with that warning ignored (the test extra does not install it)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
