"""Hold the learned control's guidance input at recorded values.

The guidance enters each policy as a constant, so the function the
rollout's reverse sweep differentiates is the rollout with the policies'
guidance inputs frozen at their base-point values; the running cost stays
live. Finite-difference checks reproduce that function by recording the
``guidance`` argument of every ``ControlPolicy.forward`` call during one
production ``bptt_rollout`` and passing those arrays in later rollouts.
The sweep reads no forward call's arguments (it rebuilds the guidance
from the recorded psi gradient), so only forwards see the replay.
"""
import itertools

from coopdiff.control import ControlPolicy


def record_guidance(monkeypatch) -> list:
    """Keep the guidance input of every ``ControlPolicy.forward`` call."""
    calls = []
    real = ControlPolicy.forward

    def recording(policy, x, y, guidance, t):
        calls.append(guidance.copy())
        return real(policy, x, y, guidance, t)

    monkeypatch.setattr(ControlPolicy, "forward", recording)
    return calls


def replay_guidance(monkeypatch, calls: list) -> None:
    """Feed the policies the recorded guidance instead of the live one.

    ``calls`` holds one rollout's calls; call n replays entry n mod len, so
    every later rollout on the same grid and policies starts again from
    its first step.
    """
    real = ControlPolicy.forward
    step = itertools.count()

    def replaying(policy, x, y, guidance, t):
        return real(policy, x, y, calls[next(step) % len(calls)], t)

    monkeypatch.setattr(ControlPolicy, "forward", replaying)
