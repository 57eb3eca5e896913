#!/usr/bin/env python3
"""The benchmark's own test: the UNKNOWN_AS gate catches a wrong
answer, smoke mode passes, and a corrupted reference digest makes it
fail.

    python3 perfbench/smoke_test.py

Runs `run.py --smoke` twice, about a minute in all.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def unknown_gate_catches_wrong_rows():
    """A served UNKNOWN_AS is wrong if that date's published round scores
    the AS, or if no round was published for that date."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_build")) as d:
        published = os.path.join(d, "published")
        os.makedirs(published)
        with open(os.path.join(published, "scores-2021-12-24.csv"), "w") as f:
            f.write("asn,score\n64512,100\n")
        cases = ((["2021-12-24,64513"], 0),  # unscored: a right answer
                 (["2021-12-24,64512"], 1),  # scored that day
                 (["2021-12-25,64513"], 1))  # no round on that date
        for rows, want in cases:
            unknown = os.path.join(d, "unknown.csv")
            with open(unknown, "w") as f:
                f.write("date,asn\n" + "".join(r + "\n" for r in rows))
            got = run.unknown_mismatches(unknown, published)
            if got != want:
                print(f"FAIL: UNKNOWN_AS rows {rows}: {got} mismatches, want {want}")
                return False
    return True


def smoke(*extra):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--smoke", *extra], cwd=ROOT, capture_output=True,
                       text=True, timeout=600)
    return r.returncode, r.stdout, r.stderr


def main():
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    if not unknown_gate_catches_wrong_rows():
        return 1
    rc, out, err = smoke()
    if rc != 0:
        print(out, err, sep="\n")
        print("FAIL: smoke run did not pass")
        return 1

    with open(os.path.join(HERE, "reference.json")) as f:
        ref = json.load(f)
    for entry in ref["small-20"].values():
        entry["published"] = "0" * 64
    corrupted = os.path.join(ROOT, ".bench_build", "reference-corrupted.json")
    with open(corrupted, "w") as f:
        json.dump(ref, f)
    rc, out, err = smoke("--reference", corrupted)
    if rc == 0:
        print(out)
        print("FAIL: a corrupted reference digest did not fail the run")
        return 1
    if "differs from the reference digest" not in err:
        print(err)
        print("FAIL: the run failed, but not on the digest gate")
        return 1
    print("ok: the UNKNOWN_AS gate catches wrong rows; smoke passes; "
          "a corrupted digest fails the gate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
