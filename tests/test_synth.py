"""Synthetic stream generator: determinism and distributional checks."""
import numpy as np
import pytest
from conftest import scalar_draw_synth

from gridcast.synth import SynthParams, synth_generate


def _params(**kw):
    base = dict(lambda_thread=1 / 600.0, mu_reply=0.05, theta=300.0,
                horizon=86400.0, breakout_fraction=0.0, breakout_boost=1.0, seed=0)
    base.update(kw)
    return SynthParams(**base)


def test_same_seed_same_stream():
    a = synth_generate(_params(seed=42))
    b = synth_generate(_params(seed=42))
    assert a == b


def test_different_seed_different_stream():
    a = synth_generate(_params(seed=1))
    b = synth_generate(_params(seed=2))
    assert a != b


@pytest.mark.parametrize(
    "setting",
    [{}, {"breakout_fraction": 0.25, "breakout_boost": 4.0}, {"mu_reply": 0.0}],
    ids=["plain", "boosted", "no-replies"],
)
def test_generator_draws_what_the_scalar_draw_oracle_draws(setting):
    """The same cascades, the same floats and the same float types as
    rng.exponential and rng.uniform called once per draw."""
    for seed in range(40):
        params = _params(seed=seed, horizon=30000.0, **setting)
        got, want = synth_generate(params), scalar_draw_synth(params)
        assert got == want, seed
        assert [type(t) for c in got.cascades for t in (c.thread_time, *c.reply_times)] == \
            [type(t) for c in want.cascades for t in (c.thread_time, *c.reply_times)]


def test_thread_ids_are_unique_and_ordered():
    stream = synth_generate(_params(seed=3))
    ids = [c.thread_id for c in stream.cascades]
    assert len(set(ids)) == len(ids)
    assert ids == sorted(ids)
    times = stream.thread_times
    assert (np.diff(times) > 0).all()
    assert times[0] > 0 and times[-1] < 86400.0


def test_zero_reply_rate_gives_bare_threads():
    stream = synth_generate(_params(mu_reply=0.0, seed=4))
    assert len(stream.cascades) > 0
    assert all(c.reply_times == () for c in stream.cascades)


def test_replies_start_after_thread_and_are_sorted():
    stream = synth_generate(_params(seed=5))
    for c in stream.cascades:
        rt = np.array(c.reply_times)
        if rt.size:
            assert (rt >= c.thread_time).all()
            assert (np.diff(rt) >= 0).all()


def test_thread_count_matches_poisson_rate():
    # lambda * horizon = 144 expected threads; averaging 200 seeds puts the
    # sample mean within ~3 * 12 / sqrt(200) ~ 2.6 of that with margin
    counts = [
        len(synth_generate(_params(mu_reply=0.0, seed=s)).cascades)
        for s in range(200)
    ]
    assert abs(np.mean(counts) - 144.0) < 3.0
    assert np.std(counts) > 6.0  # genuinely random, not degenerate


def test_mean_replies_per_cascade_is_mu_theta():
    # run to completion => expected replies = mu * theta = 15
    total, n = 0, 0
    for s in range(12):
        stream = synth_generate(_params(seed=s))
        total += sum(len(c.reply_times) for c in stream.cascades)
        n += len(stream.cascades)
    mean = total / n
    assert abs(mean - 15.0) / 15.0 < 0.05


def test_boost_multiplies_reply_volume():
    plain = synth_generate(_params(seed=6))
    boosted = synth_generate(_params(seed=6, breakout_fraction=1.0,
                                     breakout_boost=4.0))
    plain_mean = np.mean([len(c.reply_times) for c in plain.cascades])
    boost_mean = np.mean([len(c.reply_times) for c in boosted.cascades])
    assert boost_mean > 2.5 * plain_mean


def test_partial_breakout_fraction_creates_two_populations():
    stream = synth_generate(_params(seed=7, breakout_fraction=0.25,
                                    breakout_boost=4.0, horizon=4 * 86400.0))
    sizes = np.array([len(c.reply_times) for c in stream.cascades])
    # quartile split: top-quarter mean well above bottom-three-quarters mean
    cut = np.quantile(sizes, 0.75)
    hi, lo = sizes[sizes > cut], sizes[sizes <= cut]
    assert hi.mean() > 2.0 * lo.mean()


def test_params_validation():
    with pytest.raises(ValueError):
        _params(lambda_thread=0.0)
    with pytest.raises(ValueError):
        _params(mu_reply=-0.1)
    with pytest.raises(ValueError):
        _params(theta=0.0)
    with pytest.raises(ValueError):
        _params(horizon=-1.0)
    with pytest.raises(ValueError):
        _params(breakout_fraction=1.5)
    with pytest.raises(ValueError):
        _params(breakout_boost=0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "key", ["lambda_thread", "mu_reply", "theta", "horizon", "breakout_fraction", "breakout_boost"]
)
def test_params_reject_non_finite_values(key, value):
    """Checked when the params are built, before any draw: an infinite
    horizon would keep the thread loop of synth_generate going for ever."""
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        _params(**{key: value})
