import pytest

from fan_oracle import fan_faults
from logfirm import fan


@pytest.fixture
def every_fan_checked(monkeypatch, request):
    """Run the fan oracle on every overlay and stellar subdivision that the
    test makes, directly or through ``sigma_n`` and ``is_refinement``."""
    for name in ("star_subdivision", "common_refinement"):
        def checked(*args, build=getattr(fan, name)):
            out = build(*args)
            assert not fan_faults(out[0] if isinstance(out, tuple) else out)
            return out
        monkeypatch.setattr(fan, name, checked)
        if hasattr(request.module, name):
            monkeypatch.setattr(request.module, name, checked)
