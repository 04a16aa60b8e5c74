"""Shared corpus-building helpers for the test suite."""

import pytest

from refilter.corpus_io import (
    Corpus,
    HistoryEvent,
    Instance,
    SyntheticConfig,
    UserProfile,
    generate_synthetic,
)


def make_profile(user_id, neighbours=(), **overrides):
    defaults = dict(
        user_id=user_id,
        followers=100,
        following=50,
        statuses=200,
        listed=3,
        verified=False,
        account_age_days=500,
        has_profile_url=False,
        klout=40.0,
        klout_delta_1d=0.1,
        klout_delta_7d=-0.2,
        klout_delta_30d=0.5,
        neighbours=frozenset(neighbours),
    )
    defaults.update(overrides)
    return UserProfile(**defaults)


def make_instance(
    instance_id,
    tweet_id,
    sender,
    recipient,
    timestamp,
    label=False,
    tokens=(10, 11, 12),
    author=None,
    **overrides,
):
    overrides.setdefault("char_length", 6 * len(tokens))
    return Instance(
        instance_id=instance_id,
        tweet_id=tweet_id,
        author_id=sender if author is None else author,
        sender_id=sender,
        recipient_id=recipient,
        timestamp=timestamp,
        label=label,
        tokens=tuple(tokens),
        **overrides,
    )


def make_corpus(profiles, events=(), instances=()):
    return Corpus(
        profiles={p.user_id: p for p in profiles},
        events=list(events),
        instances=list(instances),
    )


@pytest.fixture(scope="session")
def small_signal_corpus():
    """A compact strong-signal synthetic corpus shared by slow-ish tests."""
    config = SyntheticConfig(
        num_recipients=10,
        neighbours_per_user=6,
        days=20,
        retweet_rate=0.35,
        signal_strength=8.0,
        posts_per_day=2.0,
    )
    return config, generate_synthetic(config, seed=404)
