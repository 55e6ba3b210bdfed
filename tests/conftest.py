import pytest
from hypothesis import settings

import ccgparse
from ccgparse import lexicon as lx

# a larger budget for the property tests: pytest --hypothesis-profile=ci;
# a test with its own @settings keeps the budget it names
settings.register_profile("ci", max_examples=1000, deadline=None)


@pytest.fixture(scope="session")
def fragment():
    lexicon, issues = lx.parse_lexicon(ccgparse.fragment_path().read_text(encoding="utf-8"))
    assert not [i for i in issues if i.severity == "error"], issues
    return lexicon


@pytest.fixture(scope="session")
def corpus():
    """(sentence, expected_count, expected_lf_texts_or_None) per suite line."""
    rows = []
    for raw in ccgparse.corpus_path().read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sentence, count, lfs = (p.strip() for p in line.split("\t"))
        rows.append((sentence, int(count), None if lfs == "-" else [p.strip() for p in lfs.split("|")]))
    assert rows
    return rows
