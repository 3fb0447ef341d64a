import pytest

from fan_oracle import fan_faults
from logfirm import fan


@pytest.fixture
def every_fan_checked(monkeypatch):
    """Run the fan oracle on every overlay and stellar subdivision that the
    test makes, directly or through ``sigma_n`` and ``is_refinement``: each
    of them is assembled by ``fan._star`` or ``fan._overlay``."""
    for name in ("_star", "_overlay"):
        def checked(*args, build=getattr(fan, name)):
            out = build(*args)
            assert not fan_faults(out)
            return out
        monkeypatch.setattr(fan, name, checked)
