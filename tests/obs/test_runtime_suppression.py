"""Coverage for runtime.suppressed() re-entrancy."""

import pytest

from repro.obs import runtime as _obs


def test_suppressed_mutes_and_restores():
    tel = _obs.enable(fresh=True)
    assert _obs.ACTIVE is tel
    with _obs.suppressed():
        assert _obs.ACTIVE is None
        assert _obs.active() is None
    assert _obs.ACTIVE is tel


def test_suppressed_nests():
    tel = _obs.enable(fresh=True)
    with _obs.suppressed():
        with _obs.suppressed():
            assert _obs.ACTIVE is None
        # Inner exit restores the *suppressed* state, not the session.
        assert _obs.ACTIVE is None
    assert _obs.ACTIVE is tel


def test_suppressed_restores_on_exception():
    tel = _obs.enable(fresh=True)
    with pytest.raises(RuntimeError):
        with _obs.suppressed():
            raise RuntimeError("boom")
    assert _obs.ACTIVE is tel


def test_suppressed_while_disabled_is_harmless():
    _obs.disable()
    with _obs.suppressed():
        assert _obs.ACTIVE is None
    assert _obs.ACTIVE is None


def test_suppressed_across_span_boundaries():
    tel = _obs.enable(fresh=True)
    with _obs.span("outer"):
        with _obs.suppressed():
            # span() inside a suppressed block returns the shared no-op
            # and records nothing.
            with _obs.span("hidden"):
                tel_inside = _obs.ACTIVE
            assert tel_inside is None
        with _obs.span("inner"):
            pass
    names = [s.name for s in tel.spans.finished()]
    assert "outer" in names and "inner" in names
    assert "hidden" not in names
    # Nesting survived the suppression: inner's parent is outer.
    by_name = {s.name: s for s in tel.spans.finished()}
    assert by_name["inner"].parent_id == by_name["outer"].span_id


def test_hooks_inside_suppressed_do_not_count():
    tel = _obs.enable(fresh=True)
    tel.registry.counter("t_total").inc()
    with _obs.suppressed():
        guard = _obs.ACTIVE
        if guard is not None:  # the instrumentation idiom
            tel.registry.counter("t_total").inc()
    assert tel.registry.total("t_total") == 1

