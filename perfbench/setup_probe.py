"""Time one cold start of ccgparse: import, load and validate the shipped fragment.

Usage: python3 setup_probe.py SRC_DIR
Prints the seconds taken and the reference task's time right after them;
exits 1 if the fragment does not load cleanly.  The timer starts before any
import beyond ``sys`` and ``time``, so every module that ccgparse pulls in is
counted.  The caller times the reference task just before starting the probe.
"""

import sys
import time

start = time.perf_counter()
src = sys.argv[1]
sys.path.insert(0, src)
import ccgparse  # noqa: E402
from ccgparse.lexicon import parse_lexicon, validate_lexicon  # noqa: E402

lexicon, issues = parse_lexicon(ccgparse.fragment_path().read_text(encoding="utf-8"))
violations = validate_lexicon(lexicon)
elapsed = time.perf_counter() - start

from reference import reference_seconds  # noqa: E402

reference_seconds()  # the first run in a fresh process pays for warm-up
after = reference_seconds()
if not ccgparse.__file__.startswith(src) or violations or any(i.severity == "error" for i in issues):
    sys.exit(1)
print(repr(elapsed), repr(after))
