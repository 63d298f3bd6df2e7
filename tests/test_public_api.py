"""The public names of ``src/`` are pinned in ``tests/data/public_api.txt``.

"Public" is what ``benchmarks/loc.py`` counts on its ``public:`` line: every
``__all__`` entry and the public methods of the classes some ``__all__``
exports.  The script is loaded by path, so the definition lives in one place.
A change that adds or removes a name regenerates the file with
``python3 benchmarks/loc.py --names > tests/data/public_api.txt``, and the
diff shows what the public surface gained or lost.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PINNED = REPO / "tests" / "data" / "public_api.txt"


def _loc():
    spec = importlib.util.spec_from_file_location("loc", REPO / "benchmarks" / "loc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_match_the_pinned_list():
    live = _loc().public_names(REPO / "src")
    pinned = PINNED.read_text().splitlines()
    added = sorted(set(live) - set(pinned))
    removed = sorted(set(pinned) - set(live))
    assert not added and not removed, f"public names added: {added}; removed: {removed}"
    assert live == pinned
