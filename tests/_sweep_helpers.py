"""Shared helper for tests that drive the sweep planner directly."""

from repro.core.sweep import run_sweep_plan


def plan_payloads(request, **plan):
    """The payloads of ``request`` run as a plan of its own, in unit order.

    ``plan`` holds :func:`~repro.core.sweep.run_sweep_plan`'s keywords
    (``store``, ``chaos``, ``report``).
    """
    [payloads] = run_sweep_plan([request], **plan)
    return payloads
