"""``loccoh verify`` answers over ``tools/answers.py``'s grid exactly as
pinned in ``tests/data/answers.jsonl``, seconds masked."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _answers():
    spec = importlib.util.spec_from_file_location("answers", ROOT / "tools" / "answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_answers_match_the_pinned_file():
    answers = _answers()
    grid = answers.grid()
    pinned = answers.PATH.read_text().splitlines()
    assert len(pinned) == len(grid)
    for argv, line in zip(grid, pinned):
        assert answers.answer(argv) == line, f"first differing run: loccoh {' '.join(argv)}"
