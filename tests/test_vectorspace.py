import math
import random

import numpy as np
import pytest

from refilter import vectorspace
from refilter.vectorspace import (
    IdfTable,
    PackedVectors,
    RollingCentroid,
    avg_similarity,
    build_idf,
    cosine,
    limb_bits,
    stream_means,
    to_fixed,
    vectorize,
)


# Naive reference implementation: no shared code with the module under
# test beyond the stated formulas, written as plain double loops.

def naive_idf(corpus, token):
    n = len(corpus)
    df = 0
    for doc in corpus:
        if token in doc:
            df += 1
    return math.log((n + 1) / (df + 1)) + 1.0


def naive_vector(tokens, corpus):
    weights = {}
    for tok in tokens:
        weights[tok] = weights.get(tok, 0) + 1
    for tok in weights:
        weights[tok] *= naive_idf(corpus, tok)
    norm = math.sqrt(sum(w * w for w in weights.values()))
    return {t: w / norm for t, w in weights.items()} if norm else {}


def naive_avg_similarity(tweet, collection, corpus):
    if not collection:
        return 0.0
    u = naive_vector(tweet, corpus)
    total = 0.0
    for member in collection:
        v = naive_vector(member, corpus)
        dot = 0.0
        for tok in set(u) | set(v):
            dot += u.get(tok, 0.0) * v.get(tok, 0.0)
        total += dot
    return total / len(collection)


def test_build_idf_counts_documents():
    table = build_idf([["a", "b"], ["a"]])
    assert table.doc_count == 2
    assert table.doc_frequency == {"a": 2, "b": 1}


def test_build_idf_counts_presence_not_occurrences():
    table = build_idf([["a", "a", "a"], ["b"]])
    assert table.doc_frequency["a"] == 1


def _per_document_idf(docs):
    """The table by one pass over every document, as build_idf once was."""
    df = {}
    for doc in docs:
        for token in set(doc):
            df[token] = df.get(token, 0) + 1
    return IdfTable(doc_count=len(docs), doc_frequency=df)


@pytest.mark.parametrize("as_doc", [list, tuple])
@pytest.mark.parametrize("token", [int, str])
def test_build_idf_equals_the_per_document_count(as_doc, token):
    """Counting each distinct document once, weighted by its repeats, gives
    the same table, with tokens in the same insertion order."""
    rng = random.Random(31)
    distinct = [[token(rng.randrange(60)) for _ in range(rng.randrange(12))] for _ in range(40)]
    docs = [as_doc(rng.choice(distinct)) for _ in range(600)]
    got, want = build_idf(docs), _per_document_idf(docs)
    assert got == want
    assert list(got.doc_frequency.items()) == list(want.doc_frequency.items())


def test_empty_corpus_gives_unit_idf():
    table = build_idf([])
    assert table.doc_count == 0
    assert table.idf("anything") == pytest.approx(1.0)


def test_uniform_table_matches_empty_build():
    assert IdfTable.uniform().idf("x") == build_idf([]).idf("x")


def test_idf_of_ubiquitous_token_is_one():
    table = build_idf([["x"], ["x", "y"], ["x"]])
    assert table.idf("x") == pytest.approx(math.log(4 / 4) + 1.0)


def test_idf_of_unseen_token():
    table = build_idf([["a"], ["b"]])
    assert table.idf("zzz") == pytest.approx(math.log(3) + 1.0)


def test_vectorize_single_token_is_unit():
    table = build_idf([["a", "b"]])
    assert vectorize(["a"], table) == {"a": pytest.approx(1.0)}


def test_vectorize_empty_is_zero_vector():
    assert vectorize([], build_idf([])) == {}


def test_vectorize_weight_ratio():
    # equal idf: weights proportional to counts (2, 1), normalized by sqrt(5)
    table = build_idf([])
    vec = vectorize(["a", "a", "b"], table)
    assert vec["a"] == pytest.approx(2 / math.sqrt(5))
    assert vec["b"] == pytest.approx(1 / math.sqrt(5))


def test_cosine_identity():
    table = build_idf([["a", "b", "c"]])
    v = vectorize(["a", "b", "c", "c"], table)
    assert cosine(v, v) == pytest.approx(1.0)


def test_cosine_disjoint_supports():
    table = build_idf([])
    assert cosine(vectorize(["a"], table), vectorize(["b"], table)) == 0.0


def test_cosine_half_overlap():
    table = build_idf([])
    u = vectorize(["a"], table)
    v = vectorize(["a", "b"], table)
    assert cosine(u, v) == pytest.approx(1 / math.sqrt(2))


def test_cosine_zero_vector():
    table = build_idf([])
    assert cosine({}, vectorize(["a"], table)) == 0.0


def test_avg_similarity_empty_collection():
    assert avg_similarity(["a"], [], build_idf([])) == 0.0


def test_avg_similarity_to_itself():
    table = build_idf([["a", "b"]])
    assert avg_similarity(["a", "b"], [["a", "b"]], table) == pytest.approx(1.0)


def _random_case(rng, max_docs=50, vocab=100):
    vocabulary = [f"w{i}" for i in range(rng.randint(2, vocab))]
    def doc():
        return [rng.choice(vocabulary) for _ in range(rng.randint(1, 12))]
    corpus = [doc() for _ in range(rng.randint(0, 20))]
    tweet = doc()
    collection = [doc() for _ in range(rng.randint(0, max_docs))]
    return corpus, tweet, collection


def test_matches_naive_oracle_randomized():
    rng = random.Random(31337)
    for _ in range(200):
        corpus, tweet, collection = _random_case(rng)
        table = build_idf(corpus)
        got = avg_similarity(tweet, collection, table)
        want = naive_avg_similarity(tweet, collection, corpus)
        assert got == pytest.approx(want, abs=1e-10)
        assert 0.0 <= got <= 1.0 + 1e-12


def test_cosine_symmetry_randomized():
    rng = random.Random(55)
    for _ in range(100):
        corpus, tweet, collection = _random_case(rng, max_docs=1)
        table = build_idf(corpus)
        u = vectorize(tweet, table)
        v = vectorize(collection[0] if collection else [], table)
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-15)


def test_cosine_invariant_under_count_multiplication():
    # multiplying every term count by the same integer leaves cosine unchanged
    rng = random.Random(99)
    table = build_idf([["a", "b", "c"], ["b", "d"]])
    for _ in range(50):
        tokens = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
        other = [rng.choice("abcd") for _ in range(rng.randint(1, 8))]
        u1 = vectorize(tokens, table)
        u3 = vectorize(tokens * 3, table)
        v = vectorize(other, table)
        assert cosine(u1, v) == pytest.approx(cosine(u3, v), abs=1e-12)


# -- RollingCentroid -------------------------------------------------------------

UNIFORM = IdfTable.uniform()


def _vec(tokens):
    return to_fixed(vectorize(tokens, UNIFORM))


def _push(centroid, ts, tweet_id, tokens):
    centroid.push(ts, tweet_id, _vec(tokens))


def test_rolling_centroid_evicts_beyond_cap():
    c = RollingCentroid(cap=2)
    for ts, (tid, tok) in enumerate([(1, "a"), (2, "b"), (3, "c")]):
        _push(c, ts, tid, [tok])
    assert list(c.ids) == [2, 3]
    assert set(c.sums) == {"b", "c"}
    assert c.means(_vec(["a"]), 99, now=10)[0] == 0.0
    assert c.means(_vec(["b"]), 99, now=10)[0] == 0.5


def test_rolling_centroid_window_horizon_is_strict():
    # a doc exactly `window` seconds old is still in the window; one second
    # older, it leaves the window but stays among the capped docs
    c = RollingCentroid(cap=10, window=10)
    _push(c, 0, 1, ["a"])
    assert c.means(_vec(["a"]), 99, now=10) == (1.0, 1.0)
    assert c.n_old == 0 and not c.old_sums
    assert c.means(_vec(["a"]), 99, now=11) == (1.0, 0.0)
    assert list(c.ids) == [1] and c.n_old == 1 and c.old_sums == c.sums


def test_rolling_centroid_excludes_the_tweet_itself():
    c = RollingCentroid(cap=10)
    _push(c, 0, 1, ["a"])
    assert c.means(_vec(["a"]), 1, now=5)[0] == 0.0
    _push(c, 1, 2, ["a", "b"])
    _push(c, 2, 1, ["a"])  # a retweet of the same tweet: both copies are left out
    half = cosine(vectorize(["a"], UNIFORM), vectorize(["a", "b"], UNIFORM))
    assert c.means(_vec(["a"]), 1, now=5)[0] == pytest.approx(half, abs=1e-15)
    assert c.means(_vec(["a"]), 3, now=5)[0] == pytest.approx((2 + half) / 3, abs=1e-15)


def test_rolling_centroid_sums_independent_of_interleaving():
    rng = random.Random(2024)
    vocabulary = [f"w{i}" for i in range(30)]
    table = build_idf([rng.sample(vocabulary, 5) for _ in range(40)])
    docs = []
    for i in range(200):
        tokens = [rng.choice(vocabulary) for _ in range(rng.randint(1, 10))]
        docs.append((10 * i + rng.randint(0, 9), i, to_fixed(vectorize(tokens, table))))
    query = to_fixed(vectorize(["w1", "w2", "w2", "w3"], table))

    eager = RollingCentroid(cap=40, window=300)
    for ts, tid, vec in docs:  # age after every push
        eager.push(ts, tid, vec)
        eager.means(query, -1, now=ts)
    lazy = RollingCentroid(cap=40, window=300)
    for ts, tid, vec in docs:  # age once at the end
        lazy.push(ts, tid, vec)
    now = docs[-1][0] + 1
    lazy.means(query, -1, now=now)
    fresh = RollingCentroid(cap=40, window=300)
    for doc in zip(eager.times, eager.ids, eager.vecs):  # only the docs still held
        fresh.push(*doc)
    fresh.means(query, -1, now=now)

    assert list(eager.ids) == list(lazy.ids) == list(fresh.ids)
    assert eager.sums == lazy.sums == fresh.sums
    assert eager.n_old == lazy.n_old == fresh.n_old > 0
    assert eager.old_sums == lazy.old_sums == fresh.old_sums
    assert eager.old_counts == lazy.old_counts == fresh.old_counts
    capped, week = lazy.means(query, -1, now)
    assert eager.means(query, -1, now) == fresh.means(query, -1, now) == (capped, week)
    assert capped > 0.0 and week > 0.0 and capped != week

    assert lazy.means(query, -1, now=now + 1000) == (capped, 0.0)
    assert lazy.n_old == len(lazy.ids) and lazy.old_sums == lazy.sums
    assert lazy.old_counts == lazy.counts


def test_rolling_centroid_means_equal_fresh_centroids_of_the_held_and_window_docs():
    """Bitwise, after any pushes and queries: the capped mean is that of a
    fresh centroid fed exactly the held docs, the window mean that of one
    fed exactly the held docs of the window. Tweet ids repeat, timestamps
    tie, and the cap binds both inside and outside the window."""
    rng = random.Random(15)
    vocabulary = [f"w{i}" for i in range(12)]
    table = build_idf([rng.sample(vocabulary, 4) for _ in range(20)])
    seen = set()
    for _ in range(60):
        cap, window = rng.choice([2, 5, 12]), rng.choice([0, 7, 40])
        # a tweet id always carries the same tokens, as in a corpus
        vec_of = {
            tid: to_fixed(vectorize(rng.choices(vocabulary, k=rng.randint(1, 6)), table))
            for tid in range(8)
        }
        centroid = RollingCentroid(cap, window)
        held = []
        ts = 0
        for _ in range(rng.randint(1, 40)):
            ts += rng.choice([0, 0, 1, 3, 10])
            tid = rng.randrange(8)
            centroid.push(ts, tid, vec_of[tid])
            held = (held + [(ts, tid, vec_of[tid])])[-cap:]
            if rng.random() < 0.5:
                continue
            now = ts + rng.choice([0, 1, 5, 20])
            in_window = [doc for doc in held if doc[0] >= now - window]
            seen.add((len(held) == cap, len(in_window) < len(held)))
            for query in [rng.randrange(8), held[-1][1], -1]:
                vec = vec_of.get(query, vec_of[0])
                fresh_held, fresh_window = RollingCentroid(cap), RollingCentroid(cap)
                for doc in held:
                    fresh_held.push(*doc)
                for doc in in_window:
                    fresh_window.push(*doc)
                expect = (
                    fresh_held.means(vec, query, now)[0],
                    fresh_window.means(vec, query, now)[0],
                )
                assert centroid.means(vec, query, now) == expect
            ts = now  # later docs are not older than a query already made
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# -- PackedVectors -------------------------------------------------------------

# idf weights from a table written by hand: negative, zero df, large df
HAND_IDF = IdfTable(doc_count=50, doc_frequency={"a": 1, "b": 49, "c": 200, 3: 7, 4: 0, "d": 2})


def test_pack_is_the_fixed_vector_of_each_tuple_bitwise():
    """On seeded random tuples of string and int tokens, empty ones, ones
    with repeated tokens and ones with many distinct tokens: each vector
    of the pack holds `to_fixed(vectorize(tokens, idf))`, its tokens in the
    dict's order, and one code stands for one token across the pack."""
    rng = random.Random(24)
    vocabulary = ["a", "b", "c", "d", 3, 4, 5] + [f"s{i}" for i in range(30)] + list(range(6, 40))
    tuples = [(), ("a", "a"), (3, "a", 3, 3)]
    for _ in range(400):
        distinct = rng.sample(vocabulary, rng.randint(1, 24))
        tuples.append(tuple(rng.choices(distinct, k=rng.randint(0, 40))))
    for idf in (HAND_IDF, build_idf(tuples[::3]), IdfTable.uniform()):
        pack = PackedVectors(tuples, idf)
        assert pack.starts[0] == 0 and pack.starts[-1] == len(pack.codes) == len(pack.weights)
        token_of: dict = {}
        for i, tokens in enumerate(tuples):
            expect = _fixed(tokens, idf)
            run = slice(pack.starts[i], pack.starts[i + 1])
            assert pack.weights[run].tolist() == list(expect.values())
            for code, token in zip(pack.codes[run].tolist(), expect):
                assert token_of.setdefault(code, token) == token
        assert len(set(token_of.values())) == len(token_of)

    # numpy's pairwise sum of the squared weights would round some of
    # these norms otherwise: the pack must sum them as `vectorize` does
    def squares(tokens):
        counts = {t: tokens.count(t) for t in dict.fromkeys(tokens)}
        return [(c * HAND_IDF.idf(t)) ** 2 for t, c in counts.items()]

    def left_to_right(values):
        total = 0.0
        for value in values:
            total += value
        return total

    long = [tokens for tokens in tuples if len(set(tokens)) >= 8]
    assert any(np.sum(squares(t)) != left_to_right(squares(t)) for t in long)


def test_empty_pack():
    pack = PackedVectors([], HAND_IDF)
    assert pack.codes.tolist() == pack.weights.tolist() == [] and pack.starts.tolist() == [0]


# -- stream_means ----------------------------------------------------------------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _fixed(tokens, idf):
    return to_fixed(vectorize(tokens, idf))


def _centroid_means(docs, queries, cap, window, idf):
    """The oracle: one RollingCentroid, pushed the docs strictly before
    each query in turn, the queries taken in time order. Docs and queries
    are (timestamp, tweet id, tokens)."""
    centroid = RollingCentroid(cap, window)
    pushed, out = 0, [None] * len(queries)
    for at in sorted(range(len(queries)), key=lambda i: queries[i][0]):
        ts, tweet_id, tokens = queries[at]
        while pushed < len(docs) and docs[pushed][0] < ts:
            doc_ts, doc_id, doc_tokens = docs[pushed]
            centroid.push(doc_ts, doc_id, _fixed(doc_tokens, idf))
            pushed += 1
        out[at] = centroid.means(_fixed(tokens, idf), tweet_id, ts)
    return out


def _kernel_means(docs, queries, cap, window, idf):
    """`stream_means` as the sweep calls it: equal token tuples share one
    vector of the pack."""
    slot: dict = {}

    def arrays(items):
        return (np.array([slot.setdefault(tuple(tokens), len(slot)) for _, _, tokens in items],
                         dtype=np.int64),
                np.array([ts for ts, _, _ in items], dtype=np.int64),
                np.array([tweet_id for _, tweet_id, _ in items], dtype=np.int64))

    doc_arrays, query_arrays = arrays(docs), arrays(queries)
    return stream_means(PackedVectors(slot, idf), doc_arrays, query_arrays, cap, window)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _assert_kernel_is_the_centroid(docs, queries, cap, window, idf):
    capped, week = _kernel_means(docs, queries, cap, window, idf)
    expect = _centroid_means(docs, queries, cap, window, idf)
    assert _bits(capped) == _bits([c for c, _ in expect])
    if window is None:
        assert week is None
    else:
        assert _bits(week) == _bits([w for _, w in expect])
    return expect


# w0 and w1 appear in more documents than the table counts: their idf, and
# so their weights, are negative
NEGATIVE_IDF = IdfTable(doc_count=3, doc_frequency={"w0": 40, "w1": 25, "w2": 1})
TWEET_IDS = [0, 1, 2, 3, -5, INT64_MIN, INT64_MAX]


@pytest.mark.parametrize("widest", [21, 4])
def test_stream_means_equal_the_rolling_centroid_bitwise(monkeypatch, widest):
    """Query by query on seeded random streams: caps that bind, that do
    not and that no int64 holds; docs exactly `window` seconds old; tied
    timestamps at both ends of int64, where ts - window wraps; copies of
    the query's own tweet held and dropped by the cap; empty vectors and
    negative weights. At widest=4 every weight takes 16 limbs, so the
    carries between limbs are exercised. Queries repeat, exactly or with
    only their tokens or tweet id changed, and come in time order, in two
    time-ordered runs, as the sweep's posts queries do, or shuffled."""
    monkeypatch.setattr(vectorspace, "_LIMB_BITS", widest)
    rng = random.Random(18 + widest)
    vocabulary = [f"w{i}" for i in range(10)]
    seen = set()
    for _ in range(150):
        cap = rng.choice([1, 5, 1000, 10**23])
        window = rng.choice([None, 0, 7, 40])
        # near the int64 maximum, later docs tie at it
        start = rng.choice([0, INT64_MIN, INT64_MAX - 10 * (window or 1), -30])
        tokens_of = {tid: tuple(rng.choices(vocabulary, k=rng.randint(0, 6)))
                     for tid in TWEET_IDS}
        docs, ts = [], start
        for _ in range(rng.randint(0, 30)):
            ts = min(ts + rng.choice([0, 0, 1, 3, window or 2]), INT64_MAX)
            tid = rng.choice(TWEET_IDS)
            # a copy of a tweet mostly carries its tokens, but not always
            tokens = tokens_of[tid] if rng.random() < 0.8 else tokens_of[rng.choice(TWEET_IDS)]
            docs.append((ts, tid, tokens))
        times = [start] + [d[0] for d in docs]
        queries = []
        for _ in range(rng.randint(1, 12)):
            q = rng.choice(times) + rng.choice([0, 1, window or 0, (window or 0) + 1])
            tid = rng.choice(TWEET_IDS)
            queries.append((min(q, INT64_MAX), tid, tokens_of[tid]))
        for _ in range(rng.randint(0, 4)):
            q, tid, tokens = rng.choice(queries)
            queries.append(rng.choice([
                (q, tid, tokens),  # the same query again
                (q, tid, tokens_of[rng.choice(TWEET_IDS)]),  # its tweet with other tokens
                (q, rng.choice(TWEET_IDS), tokens),  # its tokens under another tweet
            ]))
        order = rng.choice(["time", "two runs", "shuffled"])
        if order == "shuffled":
            rng.shuffle(queries)
        else:
            cut = rng.randint(0, len(queries)) if order == "two runs" else 0
            queries = (sorted(queries[:cut], key=lambda query: query[0])
                       + sorted(queries[cut:], key=lambda query: query[0]))
        _assert_kernel_is_the_centroid(docs, queries, cap, window, NEGATIVE_IDF)

        for i, (q, tid, tokens) in enumerate(queries):
            before = [d for d in docs if d[0] < q]
            held = before[max(0, len(before) - cap):]
            if any(d[1] == tid for d in held):
                seen.add("own copy held")
            if any(d[1] == tid for d in before[:len(before) - len(held)]):
                seen.add("own copy dropped by the cap")
            if window is not None and held:
                if any(q - d[0] == window for d in held):
                    seen.add("a doc exactly window seconds old")
                if any(q - d[0] > window for d in held):
                    seen.add("held docs older than the window")
                if q - window < INT64_MIN:
                    seen.add("horizon below int64")
            if not held:
                seen.add("nothing held")
            if q == INT64_MAX and held:
                seen.add("timestamp at the int64 maximum")
            for other in queries[i + 1:]:
                if other == (q, tid, tokens):
                    seen.add("a query repeated" + (" apart" if held and other is not queries[i + 1]
                                                   else ""))
                elif other[:2] == (q, tid) and held:
                    seen.add("a tweet's query repeated with other tokens")
                elif other[::2] == (q, tokens) and held:
                    seen.add("a query's tokens repeated under another tweet")
    assert seen == {
        "own copy held", "own copy dropped by the cap", "a doc exactly window seconds old",
        "held docs older than the window", "horizon below int64", "nothing held",
        "timestamp at the int64 maximum", "a query repeated", "a query repeated apart",
        "a tweet's query repeated with other tokens",
        "a query's tokens repeated under another tweet",
    }
    assert min(min(_fixed(tokens, NEGATIVE_IDF).values(), default=0)
               for tokens in tokens_of.values()) < 0


def test_stream_means_narrow_their_limbs_where_the_sums_need_it():
    """1000 held docs and 200-token queries pass the 21-bit bound, so the
    kernel sums in 20-bit limbs, and stays the centroid's equal."""
    rng = random.Random(7)
    vocabulary = [f"w{i}" for i in range(400)]
    table = build_idf([rng.sample(vocabulary, 50) for _ in range(30)])
    docs = [(i // 3, i % 17, rng.sample(vocabulary, 200)) for i in range(1200)]
    queries = [(ts, tid, rng.sample(vocabulary, 200))
               for ts, tid in [(100, 3), (400, 5), (401, 40), (500, 2)]]
    queries[2] = (401, 40, docs[-2][2])
    assert limb_bits(1000, 200) == 20
    expect = _assert_kernel_is_the_centroid(docs, queries, 1000, 200, table)
    assert all(0.0 < c for c, _ in expect) and expect[2][0] != expect[2][1]


def test_limb_bits_keep_every_sum_below_the_carry_room():
    assert limb_bits(0, 0) == limb_bits(1000, 33) == 21
    # at 21 bits: 3 limb pairs · width · 2·held · 2**42 < 2**62
    assert limb_bits(174_762, 1) == 21 and limb_bits(174_763, 1) == 20
    for held, width in [(1, 1), (10**6, 40), (10**12, 1000), (2**40, 2**10)]:
        bits = limb_bits(held, width)
        assert -(-63 // bits) * width * 2 * held << 2 * bits < 2**62
        assert bits == 21 or -(-63 // (bits + 1)) * width * 2 * held << 2 * (bits + 1) >= 2**62


# -- _divide: the int64 long division against _mean's Python division --------

SCALE = 2 * vectorspace.FIXED_BITS
COUNT_BOUND = 1 << 63 - vectorspace._PIECE_BITS


def _columns(dot, bits, rng):
    """`dot` as the 2·ceil(63/bits) - 1 product sums of `stream_means` at
    `bits`: its radix-2**bits digits, the top one signed, with random
    carries moved between neighbours so the sums are not settled."""
    count = 2 * -(-63 // bits) - 1
    columns = []
    for _ in range(count - 1):
        columns.append(dot & ((1 << bits) - 1))
        dot >>= bits
    columns.append(dot)
    room = (1 << 60) >> bits
    for s in range(count - 1):
        carry = rng.randint(-room, room)
        columns[s] += carry << bits
        columns[s + 1] -= carry
    assert all(abs(c) < 2**62 for c in columns)
    return columns


def _joined(columns, bits):
    return sum(c << s * bits for s, c in enumerate(columns))


def _assert_divide_is_mean(rows, bits):
    """`_divide` of (columns, count) rows, bitwise `_mean` of the dot that
    the test joins from the columns in Python."""
    sums = np.array([columns for columns, _ in rows], dtype=np.int64)
    counts = np.array([n for _, n in rows], dtype=np.int64)
    got = vectorspace._divide(sums, bits, counts)
    expect = [vectorspace._mean(_joined(columns, bits), n, 0, 0) for columns, n in rows]
    assert _bits(got) == _bits(expect)
    return expect


@pytest.mark.parametrize("bits", range(1, 22))
def test_divide_equals_the_python_mean_bitwise_at_every_limb_width(bits):
    """Random dots on both sides of 0 and past a mean of 1, with counts
    from 1 to the bound, as random and as carry-shuffled sums; dots of 0
    and -1; and the dots the largest sums give."""
    rng = random.Random(2300 + bits)
    count = 2 * -(-63 // bits) - 1
    top_room = (1 << 61) << (count - 1) * bits  # the largest dot the sums can hold
    rows = []
    for _ in range(300):
        n = rng.choice([1, 2, 3, rng.randint(1, 1000), rng.randint(1, 2**40), COUNT_BOUND - 1])
        scale = n << SCALE
        dot = rng.choice([
            rng.randint(-scale // 10, scale + scale // 10),  # a mean near [0, 1]
            rng.randint(1, 1 << rng.randint(1, 130)),  # small means, many quotient steps
            rng.randint(-top_room, top_room),  # mostly clamped to 0 or 1
            0, -1, 1, scale, scale + 1, scale - 1,
        ])
        dot = max(-top_room, min(top_room, dot))
        rows.append((_columns(dot, bits, rng), n))
    # unsettled sums drawn at random, each column below 2**61
    for _ in range(100):
        rows.append(([rng.randint(-2**61, 2**61) for _ in range(count)],
                     rng.choice([1, 7, rng.randint(1, 2**30)])))
    expect = _assert_divide_is_mean(rows, bits)
    assert {0.0, 1.0} <= set(expect) and any(0.0 < e < 1.0 for e in expect)


def test_divide_rounds_exact_ties_to_even():
    """Quotients exactly halfway between two floats, which a sticky bit
    lost or made up would round the wrong way, and their neighbours: at
    counts 1 and 3, and at each limb width that splits the dot differently."""
    rng = random.Random(23)
    for bits in (21, 20, 8, 7, 1):
        rows = []
        for _ in range(60):
            n = rng.choice([1, 3, 12345, 1 << 20])
            # a 54-bit odd mantissa is halfway between two 53-bit ones
            half = (rng.randrange(1 << 52, 1 << 53) << 1) | 1
            shift = rng.randint(SCALE - 60, SCALE - 54)  # a mean in [2**-7, 1)
            for delta in (0, 1, -1):
                rows.append((_columns(n * (half << shift) + delta, bits, rng), n))
        _assert_divide_is_mean(rows, bits)


def test_divide_gives_zero_for_no_doc_or_no_positive_dot():
    """A count of 0 or below, as copies of the query's own tweet leave it,
    gives 0 whatever the dot; so does a dot at or below 0."""
    rng = random.Random(5)
    rows = [(_columns(dot, 21, rng), n)
            for dot, n in [(1 << SCALE, 0), (5, -1), (1 << SCALE, -3), (0, 4), (-1, 1),
                           (-(1 << SCALE), 2), (1, 1)]]
    assert _assert_divide_is_mean(rows, 21) == [0.0] * 6 + [2.0**-SCALE]


def test_divide_means_leave_held_copies_out_as_mean_does():
    """A count reduced by copies of the query, and the dot less each
    copy's square: the division's answer is `_mean`'s with the copies."""
    rng = random.Random(8)
    for _ in range(200):
        square = rng.randint(0, 1 << SCALE)
        n = rng.randint(1, 50)
        dup = rng.randint(0, n + 1)
        dot = rng.randint(0, n << SCALE)
        got = vectorspace._divide(np.array([_columns(dot - dup * square, 21, rng)]), 21,
                                  np.array([n - dup]))
        assert _bits(got) == _bits([vectorspace._mean(dot, n, dup, square)])


def test_limb_bits_refuse_counts_the_division_cannot_hold():
    assert limb_bits(COUNT_BOUND - 1, 0) == 21
    with pytest.raises(OverflowError, match="long division"):
        limb_bits(COUNT_BOUND, 0)
