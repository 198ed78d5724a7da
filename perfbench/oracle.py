"""Correctness oracle: every checked operation counts as attempted, and
as failed when it raised, exited with the wrong code, or disagreed with
its reference (a second derivation or a constant frozen from a known-good
commit in ``expected.json``).  An answer that differs from its reference
only by a documented defect of the program is tallied apart, by defect,
and reported, but not counted as failed."""
from __future__ import annotations

import contextlib
import hashlib
import json
import traceback
from pathlib import Path
from typing import Iterator, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_of(value) -> str:
    """Digest of a JSON-able value (or of text as it stands)."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode("utf-8")).hexdigest()


class Oracle:
    """Tally of checked operations.  With ``expected=None`` it records the
    frozen values instead of comparing them (see ``freeze.py``)."""

    MAX_MESSAGES = 20

    def __init__(self, expected: Optional[dict]):
        self.expected = expected
        self.recorded: dict = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.known_defects: dict[str, int] = {}

    @property
    def recording(self) -> bool:
        return self.expected is None

    def _fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.messages) < self.MAX_MESSAGES:
            self.messages.append(message)

    def check(self, label: str, ok: bool) -> None:
        """One operation whose answer was checked by another derivation."""
        self.attempted += 1
        if not ok:
            self._fail(f"{label}: check failed")

    def tally(self, label: str, attempted: int, failed: int) -> None:
        """A batch of operations checked one by one."""
        self.attempted += attempted
        if failed:
            self._fail(f"{label}: {failed} of {attempted} wrong", failed)

    def known(self, defect: str) -> None:
        """One operation whose answer differs from its reference only by
        ``defect``, a documented defect of the program."""
        self.attempted += 1
        self.known_defects[defect] = self.known_defects.get(defect, 0) + 1

    def frozen(self, key: str, value) -> None:
        """One operation compared with the constant frozen under ``key``
        (when recording, the first value given for a key is kept)."""
        value = json.loads(json.dumps(value))  # tuples -> lists
        if self.recording:
            self.recorded.setdefault(key, value)
            return
        self.attempted += 1
        if key not in self.expected:
            self._fail(f"{key}: no frozen value")
        elif self.expected[key] != value:
            self._fail(f"{key}: got {str(value)[:200]}")

    @contextlib.contextmanager
    def guard(self, label: str) -> Iterator[None]:
        """Count an unexpected exception inside the block as a failed
        operation, and carry on with the next job."""
        try:
            yield
        except Exception as e:
            self.attempted += 1
            last = traceback.extract_tb(e.__traceback__)[-1]
            self._fail(f"{label}: raised {type(e).__name__}: {e} "
                       f"({Path(last.filename).name}:{last.lineno})")
