"""Sparse TF-IDF vectors and average cosine similarity.

Tokens may be strings (raw pipeline) or integer ids (encoded corpora);
anything hashable works. Document frequency is smoothed so unseen tokens
get a finite weight: idf = ln((N+1)/(df+1)) + 1.

The history similarities are means over exact integer sums of fixed-point
vectors, in two forms that give the same floats bit for bit.
`stream_means` answers every distinct query of one stream once, all at
once in numpy, with each weight split into int64 limbs and each mean
divided out by an int64 long division (`_divide`); the feature sweep uses
it, with every vector of a sweep built at once in numpy by
`PackedVectors`, bitwise `to_fixed(vectorize(tokens, idf))`. `_mean`, the
Python-int division, serves `RollingCentroid`.
`RollingCentroid` is pushed one doc at a time and answers each query as it
comes; the synthetic generator needs that, since its queries depend on
labels it has just drawn, and the tests use it as the kernel's oracle.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

Token = Hashable
SparseVector = dict  # token -> weight, L2-normalized unless empty
FixedVector = dict  # token -> weight as an exact integer in units of 2**-FIXED_BITS

FIXED_BITS = 60
_FIXED_SCALE = float(1 << FIXED_BITS)  # a power of two: w * scale is exact


@dataclass(frozen=True)
class IdfTable:
    """Document counts of a background corpus, queried for idf weights."""

    doc_count: int
    doc_frequency: Mapping[Token, int] = field(default_factory=dict)

    def idf(self, token: Token) -> float:
        df = self.doc_frequency.get(token, 0)
        return math.log((self.doc_count + 1) / (df + 1)) + 1.0

    @staticmethod
    def uniform() -> "IdfTable":
        """Empty-background table: every token weighs ln(1)+1 = 1."""
        return IdfTable(doc_count=0, doc_frequency={})


def build_idf(corpus: Iterable[Sequence[Token]]) -> IdfTable:
    """Count in how many documents each token appears (not occurrences).

    Each distinct document is counted once, weighted by how often it
    occurs; tokens enter `doc_frequency` in the order of the documents
    that first hold them, as a pass over every document would add them."""
    docs = Counter(map(tuple, corpus))
    df: dict[Token, int] = {}
    for doc, times in docs.items():
        for token in set(doc):
            df[token] = df.get(token, 0) + times
    return IdfTable(doc_count=sum(docs.values()), doc_frequency=df)


def vectorize(tokens: Sequence[Token], idf: IdfTable) -> SparseVector:
    """Raw term count times idf, L2-normalized. Empty input: zero vector."""
    return _normalized(tokens, idf.idf)


def _normalized(tokens: Sequence[Token], idf: Callable[[Token], float]) -> SparseVector:
    if not tokens:
        return {}
    counts: dict[Token, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    weights = {t: c * idf(t) for t, c in counts.items()}
    # summed left to right, the order `PackedVectors` sums in: `sum`
    # compensates float sums from Python 3.12 on
    squares = 0.0
    for w in weights.values():
        squares += w * w
    norm = math.sqrt(squares)
    if norm == 0.0:
        return {}
    return {t: w / norm for t, w in weights.items()}


def cosine(u: SparseVector, v: SparseVector) -> float:
    """Dot product of already-normalized vectors; zero vector gives 0."""
    if len(u) > len(v):
        u, v = v, u
    return sum(w * v[t] for t, w in u.items() if t in v)


def avg_similarity(
    tweet: Sequence[Token],
    collection: Iterable[Sequence[Token]],
    idf: IdfTable,
) -> float:
    """Mean cosine between a tweet and each member of a collection.

    An empty collection carries no evidence of similarity and returns 0.
    """
    t_vec = vectorize(tweet, idf)
    total = 0.0
    n = 0
    for member in collection:
        total += cosine(t_vec, vectorize(member, idf))
        n += 1
    if n == 0:
        return 0.0
    return min(max(total / n, 0.0), 1.0)


def to_fixed(vec: SparseVector) -> FixedVector:
    """Round each weight to the nearest multiple of 2**-FIXED_BITS."""
    return {t: round(w * _FIXED_SCALE) for t, w in vec.items()}


def _subtract(sums: dict, vec: FixedVector) -> None:
    """Take `vec` out of exact integer sums; a key that reaches 0 goes."""
    for t, w in vec.items():
        left = sums[t] - w
        if left:
            sums[t] = left
        else:
            del sums[t]


def _uncount(counts: dict, tweet_id: int) -> None:
    left = counts[tweet_id] - 1
    if left:
        counts[tweet_id] = left
    else:
        del counts[tweet_id]


def _mean(dot: int, n: int, dup: int, square: int) -> float:
    """Mean cosine of a query over `n` docs whose vectors sum to a dot of
    `dot` with it, leaving out `dup` copies of the query (each `square`)."""
    if dup:
        dot -= dup * square
        n -= dup
    if n <= 0:
        return 0.0
    # clamped like avg_similarity: rounding the weights to fixed point
    # can lift the mean over identical docs just past 1
    mean = dot / (n << 2 * FIXED_BITS)
    return 0.0 if mean < 0.0 else 1.0 if mean > 1.0 else mean


class RollingCentroid:
    """The most recent `cap` docs of one time-ordered stream, kept as exact
    integer sums of their fixed-point vectors. Given a `window`, the held
    docs older than the window are also summed apart, so one structure
    answers both the capped mean and the mean over the held docs of the
    trailing `window` seconds.

    The held docs of the window are the newest `cap` docs of the window,
    since the docs arrive in time order. Integer sums depend only on which
    docs are held, never on the order in which docs were pushed or
    dropped, so each mean is a pure function of the docs held and the query.
    """

    __slots__ = (
        "cap", "window", "times", "ids", "vecs", "sums", "counts",
        "n_old", "old_sums", "old_counts",
    )

    def __init__(self, cap: int, window: int | None = None) -> None:
        self.cap = cap
        self.window = window
        # the held docs, oldest first, as parallel deques: a tuple per doc
        # would be a tracked object and make the cyclic GC run more often
        self.times: deque = deque()
        self.ids: deque = deque()
        self.vecs: deque = deque()
        self.sums: dict = {}  # token -> exact int sum; a key at 0 is deleted
        self.counts: dict = {}  # tweet_id -> copies held
        # the oldest `n_old` held docs lie outside the window
        self.n_old = 0
        self.old_sums: dict = {}
        self.old_counts: dict = {}

    def _drop_oldest(self) -> None:
        self.times.popleft()
        old_id = self.ids.popleft()
        vec = self.vecs.popleft()
        _subtract(self.sums, vec)
        _uncount(self.counts, old_id)
        if self.n_old:
            self.n_old -= 1
            _subtract(self.old_sums, vec)
            _uncount(self.old_counts, old_id)

    def push(self, ts: int, tweet_id: int, vec: FixedVector) -> None:
        """Add the newest doc as a `to_fixed` vector; docs arrive in
        timestamp order, and the oldest is dropped beyond `cap`."""
        self.times.append(ts)
        self.ids.append(tweet_id)
        self.vecs.append(vec)
        sums = self.sums
        for t, w in vec.items():
            sums[t] = sums.get(t, 0) + w
        self.counts[tweet_id] = self.counts.get(tweet_id, 0) + 1
        if len(self.ids) > self.cap:
            self._drop_oldest()

    def _age(self, now: int) -> None:
        """Sum apart the held docs older than `now - window`; a doc exactly
        `window` seconds old stays in the window."""
        horizon = now - self.window
        times, i, end = self.times, self.n_old, len(self.times)
        if i == end or times[i] >= horizon:
            return
        ids, vecs = self.ids, self.vecs
        old_sums, old_counts = self.old_sums, self.old_counts
        while i < end and times[i] < horizon:
            for t, w in vecs[i].items():
                old_sums[t] = old_sums.get(t, 0) + w
            tweet_id = ids[i]
            old_counts[tweet_id] = old_counts.get(tweet_id, 0) + 1
            i += 1
        self.n_old = i

    def means(
        self, vec: FixedVector, exclude_tweet_id: int, now: int
    ) -> tuple[float, float | None]:
        """(capped, window) mean cosine between `vec` and the docs held at
        `now`, leaving out copies of `exclude_tweet_id` (the tweet of
        `vec`); the window mean is None without a window.

        An empty collection gives 0. The dot products are exact integers,
        so the one rounding of each mean is its division. The window's dot
        is the held dot minus the dot with the docs older than the window,
        and there is no second dot while no held doc is that old.
        """
        window = self.window
        n = len(self.ids)
        if n == 0:
            return 0.0, None if window is None else 0.0
        sums = self.sums
        dot = sum(w * sums.get(t, 0) for t, w in vec.items())
        dup = self.counts.get(exclude_tweet_id, 0)
        square = sum(w * w for w in vec.values()) if dup else 0
        capped = _mean(dot, n, dup, square)
        if window is None:
            return capped, None
        self._age(now)
        n_old = self.n_old
        if not n_old:
            return capped, capped
        old_sums = self.old_sums
        old_dot = sum(w * old_sums.get(t, 0) for t, w in vec.items())
        return capped, _mean(
            dot - old_dot, n - n_old, dup - self.old_counts.get(exclude_tweet_id, 0), square
        )


# ---------------------------------------------------------------------------
# every query of one stream at once, in exact int64 limbs

# the widest limb: three 21-bit limbs hold any int64 weight
_LIMB_BITS = 21
# queries answered per block, which bounds the per-entry temporaries
_QUERY_BLOCK = 4096
# `_divide` takes this many quotient bits per step until the quotient
# holds _QUOTIENT_BITS: two more than a float64 keeps, for a round bit and
# a sticky bit below it. A quotient below 2**55 shifted by 8 bits stays
# below 2**63, and so does a remainder below the count shifted by 8 while
# the count is below 2**(63 - 8).
_PIECE_BITS = 8
_QUOTIENT_BITS = 55


def limb_bits(held: int, width: int) -> int:
    """The widest limb, at most `_LIMB_BITS` bits, at which `stream_means`
    sums exactly in int64 over `held` docs and queries of up to `width`
    tokens. Each of the ceil(63/bits) limbs of a weight is at most
    2**bits in magnitude, so a token's limb summed over the held docs,
    less up to `held` copies of the query's own limb, is at most
    2·held·2**bits, and a query's product sum at one power of 2**bits
    has at most width·ceil(63/bits) terms of that times 2**bits. The sum
    stays below 2**62, which leaves room for the carries that `_divide`
    settles: at 21 bits, while held·width < 2**19/3. `_divide` also needs
    a doc count below 2**(63 - _PIECE_BITS), which `held` bounds."""
    if held >= 1 << 63 - _PIECE_BITS:
        raise OverflowError(f"no int64 long division divides by {held} docs")
    for bits in range(_LIMB_BITS, 0, -1):
        if -(-63 // bits) * width * 2 * held << 2 * bits < 1 << 62:
            return bits
    raise OverflowError(f"no int64 limbs hold sums over {held} docs of {width}-token queries")


def _limbs(weights: np.ndarray, bits: int) -> np.ndarray:
    """int64 weights as rows of ceil(63/bits) limbs, lowest first, whose
    sum of limb·2**(k·bits) is the weight: every limb but the top one in
    [0, 2**bits), the top one signed: the transpose of one array row per
    limb, each shifted out of all the weights at once."""
    limbs = (weights >> np.arange(0, 63, bits, dtype=np.int64)[:, None]).T
    limbs[:, :-1] &= (1 << bits) - 1
    return limbs


def _divide(sums: np.ndarray, bits: int, counts: np.ndarray) -> np.ndarray:
    """Each row's exact dot product, the sum of sums[:, s]·2**(s·bits),
    divided as `_mean` divides it over `counts` docs, in int64 alone: a
    dot at or below 0, or no doc, gives 0, and the mean is clamped to
    [0, 1]. Every column is below 2**62 and every count below
    2**(63 - _PIECE_BITS) (`limb_bits`).

    The carries are settled into a signed head and `bits`-wide digits
    below it. The head, then `_PIECE_BITS`-wide pieces of the digits, then
    zero pieces, are long-divided by the count, top first, until the
    quotient holds at least _QUOTIENT_BITS bits. A sticky bit, set when the
    remainder or any bit not yet divided is nonzero, is ORed into the
    quotient's lowest bit, so converting it to float64 (round half to even)
    rounds as the exact quotient rounds; `np.ldexp` then scales it exactly."""
    rows, top = sums.shape
    top -= 1
    carry = np.zeros(rows, dtype=np.int64)
    digits = []
    for s in range(top):
        settled = sums[:, s] + carry
        digits.append(settled & ((1 << bits) - 1))
        carry = settled >> bits
    head = sums[:, top] + carry  # the dot is head·2**low plus the digits
    low = top * bits

    def set_below(at: int) -> np.ndarray:
        """Whether any bit of the digits below bit `at` is set."""
        whole, part = divmod(max(at, 0), bits)
        out = np.zeros(rows, dtype=bool)
        for digit in digits[:whole]:
            out |= digit != 0
        if part:
            out |= (digits[whole] & ((1 << part) - 1)) != 0
        return out

    def piece(at: int) -> np.ndarray | int:
        """Bits [at, at + _PIECE_BITS) of the digits, bits below 0 being 0."""
        if at + _PIECE_BITS <= 0:
            return 0
        out = 0
        for k in range(max(at, 0) // bits, (at + _PIECE_BITS - 1) // bits + 1):
            shift = k * bits - at
            out = out + (digits[k] << shift if shift >= 0 else digits[k] >> -shift)
        return out & ((1 << _PIECE_BITS) - 1)

    ok = (counts > 0) & ((head > 0) | ((head == 0) & set_below(low)))
    n = np.where(ok, counts, 1)
    quotient, rest = np.divmod(np.where(ok, head, 0), n)
    exp = np.full(rows, low, dtype=np.int64)  # the quotient's unit is 2**exp
    sticky = np.zeros(rows, dtype=bool)
    going = ok & (quotient < 1 << _QUOTIENT_BITS)
    at = low
    while going.any():
        at -= _PIECE_BITS
        bits_in = piece(at)
        sticky |= ~going & (bits_in != 0)  # below where those rows stopped
        q, r = np.divmod((rest << _PIECE_BITS) + bits_in, n)
        quotient = np.where(going, (quotient << _PIECE_BITS) + q, quotient)
        rest = np.where(going, r, rest)
        exp[going] = at
        going &= quotient < 1 << _QUOTIENT_BITS
    sticky |= (rest != 0) | set_below(at)
    means = np.ldexp((quotient | sticky).astype(np.float64), exp - 2 * FIXED_BITS)
    means[~ok] = 0.0
    return np.minimum(means, 1.0)


class PackedVectors:
    """`to_fixed(vectorize(tokens, idf))` of each token tuple, bit for bit,
    laid end to end for `stream_means`: vector i holds the token codes
    `codes[starts[i]:starts[i + 1]]`, one code per distinct token of the
    pack, and the int64 weights at the same places.

    Each tuple's distinct tokens are counted in order of first occurrence,
    and each distinct token's idf is read from the table once. The squared
    weights of a vector are summed left to right, one numpy step per
    position, as `vectorize` sums them (not by numpy's pairwise sum); the
    norm, the division and the rounding are then each one IEEE operation,
    as in `vectorize` and `to_fixed`."""

    def __init__(self, token_tuples: Iterable[Sequence[Token]], idf: IdfTable) -> None:
        # each tuple's distinct tokens, in order of first occurrence, counted
        counted = [Counter(tokens) for tokens in token_tuples]
        n = len(counted)
        sizes = np.fromiter(map(len, counted), np.int64, n)
        size = int(sizes.sum())
        code_of: defaultdict = defaultdict(count().__next__)
        codes = np.fromiter(map(code_of.__getitem__, chain.from_iterable(counted)), np.int64, size)
        counts = np.fromiter(chain.from_iterable(c.values() for c in counted), np.int64, size)
        del counted
        idf_of = np.array([idf.idf(t) for t in code_of], dtype=np.float64)
        weights = counts * idf_of[codes]
        squares = weights * weights
        # the vectors longest first, so the ones with a term at position p
        # are a prefix; each step adds one term to each of them
        longest = np.argsort(-sizes, kind="stable")
        firsts = (np.cumsum(sizes) - sizes)[longest]
        live = np.bincount(sizes, minlength=1)[::-1].cumsum()[::-1]  # live[p]: sizes >= p
        total = np.zeros(n)
        for p in range(1, len(live)):
            total[:live[p]] += squares[firsts[:live[p]] + (p - 1)]
        norms = np.empty(n)
        norms[longest] = np.sqrt(total)
        owner = np.repeat(np.arange(n, dtype=np.int64), sizes)
        norm = norms[owner]
        kept = norm != 0.0  # a zero vector has no entries
        self.codes = codes[kept]
        self.weights = np.rint(weights[kept] / norm[kept] * _FIXED_SCALE).astype(np.int64)
        self.starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner[kept], minlength=n), out=self.starts[1:])

    def entries(self, which: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For the vectors `which`: the place of each of their entries in
        the flat arrays, the index into `which` that owns it, and the
        bounds of each vector's run of entries."""
        first = self.starts[which]
        sizes = self.starts[which + 1] - first
        bounds = np.zeros(len(which) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        owner = np.repeat(np.arange(len(which)), sizes)
        return np.arange(bounds[-1]) + (first - bounds[:-1])[owner], owner, bounds


def stream_means(
    pack: PackedVectors,
    docs: tuple[np.ndarray, np.ndarray, np.ndarray],
    queries: tuple[np.ndarray, np.ndarray, np.ndarray],
    cap: int,
    window: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(capped, window) mean cosines of many queries against one stream,
    each bitwise the pair `RollingCentroid(cap, window).means` gives once
    the stream's docs before the query are pushed; no window gives None.

    `docs` and `queries` are (vector index into `pack`, int64 timestamp,
    tweet id) arrays, the docs in time order. A query sees the newest
    `cap` docs strictly before its timestamp, without copies of its own
    tweet id, and its window mean those of them no more than `window`
    seconds older than the query.

    Each weight is split into int64 limbs (`limb_bits`). The docs' limbs
    are summed in prefix order over their (token, position) entries, so
    the held sum of a query's token is a difference of two prefix sums
    found with `searchsorted`. A prefix sum may wrap in int64, but a
    difference within one token's run is at most held·2**bits, so it is
    exact. Each copy of the query's own tweet among the held docs takes
    the query's own limbs off these sums, as `_mean` takes `dup·|vec|²`
    off the dot product. A query's limb products are summed at each power
    of 2**bits, and `_divide` divides each query's exact dot product as
    `_mean` divides it.

    Queries that repeat another's vector, timestamp and tweet id (one
    tweet delivered to many recipients at once asks its sender's posts
    one question) are answered once, and the distinct ones in time order.
    A query's newest held doc and the oldest of its capped and window
    docs then all rise with it, so one sort of a block's token entries
    orders the needles of every `searchsorted` into the prefix sums,
    which numpy finds faster in order.
    """
    doc_vecs, doc_times, doc_ids = docs
    query_vecs, query_times, query_ids = queries
    m, n = len(doc_times), len(query_times)
    if m == 0 or n == 0:
        empty = np.zeros(n)
        return empty, None if window is None else empty.copy()
    # each distinct (vector, timestamp, tweet id) is answered once, in time
    # order, and its answer copied to every query that repeats it; only
    # queries that share a timestamp can repeat one, so only they are
    # ordered by vector and tweet id too
    order = np.argsort(query_times, kind="stable")
    same = query_times[order[1:]] == query_times[order[:-1]]
    tied = np.zeros(n, dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    at = order[tied]
    order[tied] = at[np.lexsort((query_ids[at], query_vecs[at], query_times[at]))]
    query_vecs, query_times, query_ids = query_vecs[order], query_times[order], query_ids[order]
    first = np.ones(n, dtype=bool)
    first[1:] = ((query_vecs[1:] != query_vecs[:-1]) | (query_times[1:] != query_times[:-1])
                 | (query_ids[1:] != query_ids[:-1]))
    answer_of = np.empty(n, dtype=np.intp)
    answer_of[order] = np.cumsum(first) - 1
    query_vecs, query_times, query_ids = query_vecs[first], query_times[first], query_ids[first]
    del order, same, tied, at, first

    held = min(cap, m)
    ends = np.searchsorted(doc_times, query_times)
    starts = [np.maximum(ends - held, 0)]
    if window is not None:
        # the horizon ts - window, floored where it would wrap below int64
        floor = int(np.iinfo(np.int64).min) + window
        horizon = np.maximum(query_times, floor) - window
        starts.append(np.maximum(starts[0], np.searchsorted(doc_times, horizon)))
    # a tweet id's docs and a token's entries, each keyed by the id's rank
    # or the token's code times m+1, plus the position: ranks and codes are
    # fewer than the entries held, so keys fit int64 for any stream in memory
    ids, id_rank = np.unique(doc_ids, return_inverse=True)
    id_keys = np.sort(id_rank.reshape(-1) * (m + 1) + np.arange(m))
    places, owner, _ = pack.entries(doc_vecs)
    keys = pack.codes[places] * (m + 1) + owner
    order = np.argsort(keys)
    keys = keys[order]
    widths = pack.starts[query_vecs + 1] - pack.starts[query_vecs]
    bits = limb_bits(held, int(widths.max(initial=0)))
    limbs = _limbs(pack.weights[places[order]], bits)
    sums = np.zeros((len(keys) + 1, limbs.shape[1]), dtype=np.int64)
    np.cumsum(limbs, axis=0, out=sums[1:])
    del places, owner, order, limbs

    means: list[list[np.ndarray]] = [[] for _ in starts]
    for block in range(0, len(query_times), _QUERY_BLOCK):
        rows = slice(block, block + _QUERY_BLOCK)
        vecs, hi = query_vecs[rows], ends[rows]
        # the rank of the query's own tweet among the doc ids, if it is one
        rank = np.minimum(np.searchsorted(ids, query_ids[rows]), len(ids) - 1)
        own = np.flatnonzero(ids[rank] == query_ids[rows])
        id_base = rank[own] * (m + 1)
        places, owner, bounds = pack.entries(vecs)
        base = pack.codes[places] * (m + 1)
        query_limbs = _limbs(pack.weights[places], bits)
        count = query_limbs.shape[1]
        # the queries run in time order, so every bound rises with the
        # owner: one sort of the entries by key orders the needles of all
        # three bounds, which `searchsorted` finds faster in order
        by_key = np.argsort(base + hi[owner])
        sorted_base, sorted_owner = base[by_key], owner[by_key]
        found = np.empty(len(places), dtype=np.intp)

        def prefix(bound: np.ndarray) -> np.ndarray:
            """Each entry's prefix-sum row at its token's position `bound`."""
            found[by_key] = np.searchsorted(keys, sorted_base + bound[sorted_owner])
            return sums.take(found, axis=0)

        upper = prefix(hi)
        for lo, out in zip((s[rows] for s in starts), means):
            dups = np.zeros(len(vecs), dtype=np.int64)
            dups[own] = (np.searchsorted(id_keys, id_base + hi[own])
                         - np.searchsorted(id_keys, id_base + lo[own]))
            held_sums = upper - prefix(lo)
            held_sums -= dups[owner, None] * query_limbs
            products = np.zeros((len(places) + 1, 2 * count - 1), dtype=np.int64)
            for k in range(count):
                for j in range(count):
                    products[1:, k + j] += held_sums[:, k] * query_limbs[:, j]
            np.cumsum(products, axis=0, out=products)
            out.append(_divide(products[bounds[1:]] - products[bounds[:-1]], bits,
                               hi - lo - dups))
    capped, *week = (np.concatenate(out)[answer_of] for out in means)
    return capped, week[0] if week else None
