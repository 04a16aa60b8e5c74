import random

from refilter import textnorm
from refilter.textnorm import (
    DEFAULT_SMILEYS,
    NUM_TOKEN,
    SMILEY_TOKENS,
    URL_TOKEN,
    normalize,
)


def test_mention_and_exclamation():
    t = normalize("hi @Alice !")
    assert t.tokens == ("hi", "@alice", "!")
    assert t.mentions == ("alice",)
    assert t.has_exclamation
    assert t.char_length == 11


def test_number_and_love_smiley():
    t = normalize("WOW 100 points <3")
    assert t.tokens == ("wow", NUM_TOKEN, "points", SMILEY_TOKENS["love"])
    assert t.smiley_counts["love"] == 1


def test_url_hashtag_negative_smiley():
    t = normalize("read https://t.co/x #news :-(")
    assert t.tokens == ("read", URL_TOKEN, "#news", SMILEY_TOKENS["negative"])
    assert t.has_url
    assert t.has_hashtag


def test_empty_input():
    t = normalize("")
    assert t.tokens == ()
    assert t.char_length == 0
    assert not t.has_url and not t.has_hashtag and not t.has_exclamation
    assert t.mentions == ()
    assert all(v == 0 for v in t.smiley_counts.values())


def test_mixed_alphanumerics_kept():
    assert normalize("the 2nd time").tokens == ("the", "2nd", "time")


def test_decimal_signed_and_grouped_numbers():
    assert normalize("-5 3.14 1,000 points").tokens == (
        NUM_TOKEN, NUM_TOKEN, NUM_TOKEN, "points",
    )


def test_punctuation_split_off():
    t = normalize("well(really)...")
    assert t.tokens == ("well", "(", "really", ")", ".", ".", ".")


def test_mention_with_trailing_punctuation():
    t = normalize("thanks @Bob!!")
    assert t.tokens == ("thanks", "@bob", "!", "!")
    assert t.mentions == ("bob",)


def test_multiple_smileys_counted():
    t = normalize(":) :) :-( :|")
    assert t.smiley_counts == {"love": 0, "positive": 2, "negative": 1, "neutral": 1}


def test_www_url_detected():
    t = normalize("see www.example.com now")
    assert t.tokens == ("see", URL_TOKEN, "now")
    assert t.has_url


def test_no_uppercase_no_raw_urls_no_bare_digits():
    raw = "Check HTTP://BIG.example/x AND @CamelCase #Tagged 42 99.9"
    t = normalize(raw)
    for tok in t.tokens:
        assert tok == tok.lower()
        assert "http://" not in tok and "https://" not in tok
        assert not tok.isdigit()


def test_photo_flag_not_set_from_text():
    assert not normalize("a photo of a cat").has_photo


_WORDS = ["storm", "vote", "game", "press", "live", "too", "don't", "co-op"]
_URLS = ["http://a.b/c", "https://t.co/xyz", "www.news.org/item"]
_NUMBERS = ["7", "3.5", "-12", "1,234"]
_SMILEYS = sorted(s for c in DEFAULT_SMILEYS.values() for s in c)


def _random_text(rng):
    parts = []
    for _ in range(rng.randint(1, 16)):
        kind = rng.random()
        if kind < 0.55:
            parts.append(rng.choice(_WORDS))
        elif kind < 0.7:
            parts.append(rng.choice(_URLS))
        elif kind < 0.85:
            parts.append(rng.choice(_NUMBERS))
        else:
            parts.append(rng.choice(_SMILEYS))
    return " ".join(parts)


def test_idempotent_on_random_texts():
    rng = random.Random(2024)
    for _ in range(300):
        first = normalize(_random_text(rng))
        second = normalize(" ".join(first.tokens))
        assert second.tokens == first.tokens


def test_deterministic():
    raw = "Breaking: 100 people :) at http://x.y #live @Who"
    assert normalize(raw) == normalize(raw)


def test_pseudo_token_coverage():
    rng = random.Random(77)
    pseudo = {URL_TOKEN, NUM_TOKEN} | set(SMILEY_TOKENS.values())
    for _ in range(200):
        specials = [rng.choice(_URLS + _NUMBERS + _SMILEYS) for _ in range(rng.randint(1, 5))]
        words = [rng.choice(_WORDS) for _ in range(rng.randint(1, 5))]
        parts = []
        for i in range(max(len(words), len(specials))):
            if i < len(words):
                parts.append(words[i])
            if i < len(specials):
                parts.append(specials[i])
        tokens = normalize(" ".join(parts)).tokens
        assert sum(1 for t in tokens if t in pseudo) >= len(specials)


def test_lexicon_loading():
    lexicons = {**DEFAULT_SMILEYS, "positive": frozenset({":>", "^_^"})}
    t = normalize("nice ^_^", smileys=lexicons)
    assert t.tokens == ("nice", SMILEY_TOKENS["positive"])
    assert t.smiley_counts["positive"] == 1
    # default smileys for the overridden class no longer apply
    assert normalize(":)", smileys=lexicons).tokens != (SMILEY_TOKENS["positive"],)
