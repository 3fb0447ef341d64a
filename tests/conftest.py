import pytest

from fan_oracle import fan_faults
from logfirm import fan


@pytest.fixture
def every_fan_checked(monkeypatch, request):
    """Run the fan oracle on every overlay and stellar subdivision that the
    test makes, directly or through ``is_refinement`` and
    ``fan_oracle.star_overlay_sigma_n``: each overlay is assembled by
    ``fan._overlay``, and each subdivision is the first value of
    ``fan.star_subdivision``, which the test module may also hold by name.
    ``sigma_n`` cuts the orthant by hyperplanes and goes through neither, so
    the tests of ``sigma_n`` run ``fan_faults`` on its results themselves."""
    def checked(build, subdivided):
        def run(*args):
            out = build(*args)
            assert not fan_faults(subdivided(out))
            return out
        return run
    monkeypatch.setattr(fan, "_overlay", checked(fan._overlay, lambda out: out))
    star = checked(fan.star_subdivision, lambda out: out[0])
    for owner in (fan, request.module):
        if hasattr(owner, "star_subdivision"):
            monkeypatch.setattr(owner, "star_subdivision", star)
