#!/usr/bin/env python
"""QoS demo: overload collapse vs graceful degradation, side by side.

Two acts:

1. deadline shedding in miniature — a 1 ns deadline (the
   ``qos/deadline_ns`` knob) makes every request dead on arrival, and
   the stack completes them with ``-ETIME`` at the coalesce-admit stage
   instead of paying service cost;
2. the headline: one open-loop serving point at 2x the SLO knee, run
   bare (goodput collapses — the server burns its time on requests
   whose clients already gave up) and again with the stock QoS plan
   (sojourn policing), which converts doomed work into cheap early
   rejects and holds goodput at the knee level.

Run:  python examples/qos_demo.py
"""

from repro.machine import small_machine
from repro.oskernel.errors import Errno
from repro.qos import install_qos_plan
from repro.serving.sweep import (
    ServingConfig,
    build_target,
    default_knee,
    default_overload_plan,
    run_point_on,
)
from repro.system import System


def act1_deadline_shedding():
    print("=== Act 1: deadline shedding ===")
    system = System(config=small_machine())
    system.genesys.qos_deadline_ns = 1.0  # everything expires in flight
    results = []

    def kern(ctx):
        results.append((yield from ctx.sys.getrusage()))

    system.run_kernel(kern, 8, 8, name="qos-demo-shed")
    stats = system.genesys.stats()
    assert all(r == -int(Errno.ETIME) for r in results)
    print(f"8 requests, all shed with -ETIME; "
          f"sheds_by_stage = {stats['sheds_by_stage']}")
    print()


def _one_point(config, rps, plan=None):
    system, workload = build_target(config)
    controller = install_qos_plan(plan, system) if plan is not None else None
    point = run_point_on(system, workload, config, rps)
    if controller is not None:
        point["qos"] = controller.summary()
        controller.remove()
    return point


def act2_overload():
    print("=== Act 2: 2x the knee, bare vs QoS plan ===")
    config = ServingConfig(workload="memcached", num_clients=256)
    knee = default_knee(config)
    rps = 2 * knee
    plan = default_overload_plan(config)

    bare = _one_point(config, rps)
    planned = _one_point(config, rps, plan)

    def describe(tag, point):
        life = point["lifecycle"]
        print(f"{tag:>8}: goodput {point['achieved_rps']:>7.0f} rps  "
              f"completed {life['completed']:>4}  late {life['late']:>3}  "
              f"timeout {life['timeout']:>3}  rejected {life['rejected']:>3}  "
              f"p99 {point['latency_ns']['p99'] / 1e3:.0f} us")

    print(f"offered load: {rps} rps (knee ~{knee} rps)")
    describe("bare", bare)
    describe("qos", planned)
    qos = planned["qos"]
    print(f"qos summary: net drops {qos['net_drops']}, "
          f"fast-fail rejects {qos['policy_rejects']}")
    if planned["achieved_rps"] > bare["achieved_rps"]:
        gain = planned["achieved_rps"] / max(bare["achieved_rps"], 1.0)
        print(f"-> the plan holds {gain:.1f}x the bare goodput at 2x the knee")
    print()
    print("full curves (0.5x..3x, with the CI gate):")
    print("  python -m repro overload --check")


def main():
    act1_deadline_shedding()
    act2_overload()


if __name__ == "__main__":
    main()
