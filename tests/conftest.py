import pytest

from fan_oracle import fan_faults
from logfirm import fan


@pytest.fixture
def every_fan_checked(monkeypatch):
    """Run the fan oracle on every overlay and stellar subdivision that the
    test makes, directly or through ``is_refinement`` and
    ``fan_oracle.star_overlay_sigma_n``: each of them is assembled by
    ``fan._star`` or ``fan._overlay``.  ``sigma_n`` cuts the orthant by
    hyperplanes and goes through neither, so the tests of ``sigma_n`` run
    ``fan_faults`` on its results themselves."""
    for name in ("_star", "_overlay"):
        def checked(*args, build=getattr(fan, name)):
            out = build(*args)
            assert not fan_faults(out)
            return out
        monkeypatch.setattr(fan, name, checked)
