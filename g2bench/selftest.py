"""Self-test of the failure counting on synthetic report streams.

    python3 g2bench/selftest.py

Exits 0 when every case counts as expected.  The streams are made up here and
use no real g2lab check, so the test holds whatever g2lab's checks do.
run.py calls `problems()` at the start of every run.
"""

import json
import sys

from checks import count_failed

IDS = ("demo.one", "demo.two", "demo.three")


def _stream(statuses) -> bytes:
    return "".join(json.dumps({"check_id": cid, "status": st, "residuals": {}}) + "\n"
                   for cid, st in zip(IDS, statuses)).encode()


TRACEBACK = b'Traceback (most recent call last):\n  File "x.py", line 1\nValueError: boom\n'
CASES = (
    # (name, stdout, stderr, exit code, expected failed)
    ("all pass", _stream(["pass"] * 3), b"", 0, 0),
    ("warn counts as passed", _stream(["pass", "warn", "pass"]), b"", 0, 0),
    ("one fail line", _stream(["pass", "fail", "pass"]), b"", 1, 1),
    ("an error status", _stream(["pass", "pass", "error"]), b"", 1, 1),
    ("truncated stream", _stream(["pass"]) + b'{"check_id": "demo.tw', b"", 1, 2),
    ("nonzero exit, all lines pass", _stream(["pass"] * 3), b"", 3, 3),
    ("exit 0 despite a fail line", _stream(["pass", "fail", "pass"]), b"", 0, 3),
    ("traceback, exit 0", _stream(["pass"] * 3), TRACEBACK, 0, 3),
    ("traceback after two lines", _stream(["pass", "pass"]), TRACEBACK, 1, 3),
    ("killed, no output", b"", b"", -9, 3),
)


def problems() -> list:
    out = []
    for name, stdout, stderr, rc, want in CASES:
        got = count_failed(IDS, stdout, stderr, rc)
        if got != want:
            out.append(f"failure count self-test '{name}': counted {got}, expected {want}")
    return out


if __name__ == "__main__":
    found = problems()
    for msg in found:
        print(msg, file=sys.stderr)
    print(f"{len(CASES) - len(found)}/{len(CASES)} failure-count cases hold")
    sys.exit(1 if found else 0)
