import random

from refilter.corpus_io import HistoryEvent
from refilter.history import WEEK_SECONDS, UserHistoryIndex, recent

from conftest import make_corpus, make_profile

DAY = 86400


def build_index(events, profiles=None, instances=()):
    if profiles is None:
        users = sorted({e.user_id for e in events} | {1, 2})
        profiles = [make_profile(u) for u in users]
    return UserHistoryIndex(make_corpus(profiles, events, instances))


def tokens(docs):
    return [d.tokens for d in docs]


def test_unknown_user_gives_empty():
    idx = build_index([])
    assert recent(idx.posts_stream(42), before=10**9) == []
    assert recent(idx.retweets_stream(42), before=10**9) == []
    assert recent(idx.seen_stream(42), before=10**9) == []


def test_query_at_event_time_excludes_it():
    idx = build_index([HistoryEvent(1, 7, "authored", 5000, (1, 2))])
    assert tokens(recent(idx.posts_stream(1), before=5000)) == []
    assert tokens(recent(idx.posts_stream(1), before=5001)) == [(1, 2)]


def test_posts_merge_authored_and_retweeted():
    idx = build_index([
        HistoryEvent(1, 7, "authored", 100, (1,)),
        HistoryEvent(1, 8, "retweeted", 200, (2,)),
        HistoryEvent(1, 9, "seen", 300, (3,)),
    ])
    assert tokens(recent(idx.posts_stream(1), before=1000)) == [(1,), (2,)]


def test_cap_keeps_most_recent():
    events = [HistoryEvent(1, i, "authored", 100 * i, (i,)) for i in range(1, 6)]
    idx = build_index(events)
    assert tokens(recent(idx.posts_stream(1), before=10**6, cap=3)) == [(3,), (4,), (5,)]


def test_window_boundaries():
    now = 100 * DAY
    idx = build_index([
        HistoryEvent(1, 1, "retweeted", now - 8 * DAY, (8,)),
        HistoryEvent(1, 2, "retweeted", now - 1 * DAY, (1,)),
    ])
    assert tokens(recent(idx.retweets_stream(1), before=now, window=WEEK_SECONDS)) == [(1,)]
    assert tokens(recent(idx.retweets_stream(1), before=now)) == [(8,), (1,)]
    # a retweet exactly a week old falls inside the closed left edge
    idx2 = build_index([HistoryEvent(1, 3, "retweeted", now - WEEK_SECONDS, (7,))])
    assert tokens(recent(idx2.retweets_stream(1), before=now, window=WEEK_SECONDS)) == [(7,)]


def test_exclude_tweet_id():
    idx = build_index([
        HistoryEvent(1, 7, "authored", 100, (1,)),
        HistoryEvent(1, 8, "authored", 200, (2,)),
    ])
    assert tokens(recent(idx.posts_stream(1), before=300, exclude_tweet_id=7)) == [(2,)]
    # the cap applies before the exclusion
    assert tokens(recent(idx.posts_stream(1), before=300, cap=1, exclude_tweet_id=8)) == []


def test_interaction_zero_for_unknown_pair():
    idx = build_index([])
    assert idx.mention_count(1, 2, before=10**9) == 0
    assert idx.retweet_count(1, 2, before=10**9) == 0


def test_interaction_counts_and_strictness():
    events = [HistoryEvent(9, 50, "authored", 10, (1,))]  # tweet 50 by user 9
    events += [HistoryEvent(1, 50, "retweeted", 100 * i, (1,)) for i in range(1, 4)]
    events += [HistoryEvent(1, 60, "authored", 150, (2,), mentions_user=9)]
    idx = build_index(events, profiles=[make_profile(u) for u in (1, 9)])
    assert idx.retweet_count(1, 9, before=10**6) == 3
    assert idx.mention_count(1, 9, before=10**6) == 1
    assert idx.retweet_count(1, 9, before=100) == 0
    assert idx.retweet_count(9, 1, before=10**6) == 0


def test_retweet_attribution_uses_tweet_author():
    # user 1 retweets a tweet authored by 9 but delivered by someone else:
    # the counter credits the author
    events = [
        HistoryEvent(9, 50, "authored", 10, (1,)),
        HistoryEvent(5, 50, "retweeted", 20, (1,)),
        HistoryEvent(1, 50, "retweeted", 30, (1,)),
    ]
    idx = build_index(events, profiles=[make_profile(u) for u in (1, 5, 9)])
    assert idx.retweet_count(1, 9, before=100) == 1
    assert idx.retweet_count(1, 5, before=100) == 0


def test_neighbour_retweets_counts_distinct_users_strictly_before():
    profiles = [make_profile(1, neighbours=[2, 3, 4, 5, 6])] + [
        make_profile(u) for u in (2, 3, 4, 5, 6, 7)
    ]
    events = [
        HistoryEvent(2, 99, "retweeted", 100, (1,)),
        HistoryEvent(3, 99, "retweeted", 200, (1,)),
        HistoryEvent(3, 99, "retweeted", 250, (1,)),  # same neighbour twice
        HistoryEvent(4, 99, "retweeted", 900, (1,)),  # after the query time
        HistoryEvent(7, 99, "retweeted", 100, (1,)),  # not a neighbour
    ]
    idx = build_index(events, profiles=profiles)
    assert idx.neighbour_retweets(99, recipient=1, before=500) == 2
    assert idx.neighbour_retweets(99, recipient=7, before=500) == 0  # no neighbours


def test_has_posts_in_window():
    idx = build_index([HistoryEvent(1, 7, "authored", 10 * DAY, (1,))])
    assert idx.has_posts_in(1, before=11 * DAY, window=2 * DAY)
    assert not idx.has_posts_in(1, before=20 * DAY, window=2 * DAY)
    assert not idx.has_posts_in(1, before=10 * DAY, window=DAY)  # strict


# ---------------------------------------------------------------------------
# randomized comparison against a brute-force scan of the raw event list


def naive_stream(events, user, actions, before, window, cap, exclude):
    docs = [
        (e.timestamp, e.tweet_id, e.tokens)
        for e in events
        if e.user_id == user and e.action in actions and e.timestamp < before
        and (window is None or e.timestamp >= before - window)
    ]
    docs.sort(key=lambda d: d[0])
    return [tokens for _, tweet_id, tokens in docs[-cap:] if tweet_id != exclude]


def naive_interaction(events, a, b, before, author_of):
    mentioned = sum(
        1 for e in events
        if e.user_id == a and e.mentions_user == b and e.timestamp < before
    )
    retweeted = sum(
        1 for e in events
        if e.user_id == a and e.action == "retweeted" and e.timestamp < before
        and author_of.get(e.tweet_id) == b
    )
    return mentioned, retweeted


def naive_neighbour_retweets(events, tweet_id, neighbours, before):
    return len({
        e.user_id for e in events
        if e.action == "retweeted" and e.tweet_id == tweet_id
        and e.timestamp < before and e.user_id in neighbours
    })


def random_events(rng, users, n):
    events = []
    for _ in range(n):
        user = rng.choice(users)
        action = rng.choice(["authored", "retweeted", "seen"])
        tweet = rng.randint(1, 40)
        ts = rng.randint(0, 30 * DAY)
        mention = rng.choice([None] + users) if action == "authored" else None
        if mention == user:
            mention = None
        events.append(HistoryEvent(user, tweet, action, ts, (tweet,), mention))
    return events


def test_queries_match_brute_force_scan():
    rng = random.Random(8)
    users = [1, 2, 3, 4, 5]
    for _ in range(30):
        events = random_events(rng, users, rng.randint(0, 400))
        profiles = [make_profile(u, neighbours=[v for v in users if v != u and rng.random() < 0.5])
                    for u in users]
        corpus = make_corpus(profiles, events)
        idx = UserHistoryIndex(corpus)
        author_of = {}
        for e in sorted(events, key=lambda e: (e.timestamp, e.user_id, e.tweet_id)):
            if e.action == "authored":
                author_of.setdefault(e.tweet_id, e.user_id)
        for _ in range(25):
            user = rng.choice(users)
            before = rng.randint(0, 31 * DAY)
            window = rng.choice([None, WEEK_SECONDS, 3 * DAY])
            cap = rng.choice([2, 10, 1000])
            exclude = rng.choice([None, rng.randint(1, 40)])
            for stream, actions in ((idx.posts_stream, ("authored", "retweeted")),
                                    (idx.retweets_stream, ("retweeted",)),
                                    (idx.seen_stream, ("seen",))):
                got = tokens(recent(stream(user), before, window, cap, exclude))
                assert got == naive_stream(
                    corpus.events, user, actions, before, window, cap, exclude)
            other = rng.choice([v for v in users if v != user])
            got = (idx.mention_count(user, other, before), idx.retweet_count(user, other, before))
            assert got == naive_interaction(corpus.events, user, other, before, author_of)
            tweet = rng.randint(1, 40)
            assert idx.neighbour_retweets(tweet, user, before) == naive_neighbour_retweets(
                corpus.events, tweet, corpus.profiles[user].neighbours, before)
