#!/usr/bin/env python
"""Model-check demo: find an ordering bug one schedule cannot see.

GSan watches a single deterministic run, so a bug that only fires on a
*reordered* schedule slips straight past it.  GMC (``repro.modelcheck``)
closes that gap: it enumerates tie-break choices at contested event-heap
pops, runs GSan on every branch, and shrinks any hit to a minimal,
replayable schedule certificate.

Three acts on the seeded ``ready-publish-race`` corpus bug (the CPU
worker polls a slot whose READY publish races its payload write):

1. the FIFO schedule — the one every normal run takes — is provably
   clean: GSan sees a legal protocol walk and reports nothing,
2. exploration finds a reordering GSan flags (``protocol-error``) and
   shrinks it to a one-choice certificate,
3. the certificate replays: the same violation, byte-for-byte, from
   nothing but the choice map.

Run:  python examples/modelcheck_demo.py
"""

from repro.modelcheck.certificate import render_certificate, replay
from repro.modelcheck.corpus import ORDERING_BUGS, check_bug
from repro.modelcheck.explore import run_schedule

BUG = next(b for b in ORDERING_BUGS if b.name == "ready-publish-race")


def main():
    print("=== act 1: the FIFO schedule is clean ===")
    fifo = run_schedule(BUG.name, ())
    assert fifo["ok"], fifo["violations"]
    assert BUG.expected_rule not in fifo["rules"]
    print(
        f"{BUG.name}: FIFO run finished with {fifo['events']} events, "
        f"{len(fifo['decisions'])} contested pops, 0 violations — "
        f"single-schedule GSan is blind"
    )

    print()
    print("=== act 2: explore the schedule space ===")
    report = check_bug(BUG)
    assert report["fifo_clean"] and report["found"]
    assert report["replay_hits_rule"]
    cert = report["certificate"]
    print(
        f"explored {report['schedules']} schedules "
        f"({report['pruned']} pruned by DPOR); "
        f"shrunk in {report['shrink_attempts']} attempts to "
        f"{len(cert['choices'])} pinned choice(s)"
    )
    print(render_certificate(cert))

    print()
    print("=== act 3: replay the minimal certificate ===")
    replayed = replay(cert)
    assert not replayed["ok"]
    assert BUG.expected_rule in replayed["rules"]
    for violation in replayed["violations"]:
        print(violation)
    print(
        f"\nreplayed: rules {sorted(replayed['rules'])} reproduced from "
        f"{len(cert['choices'])} choice(s) — attach the certificate to "
        f"the bug report"
    )


if __name__ == "__main__":
    main()
