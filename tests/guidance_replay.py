"""Hold the learned control's guidance input at recorded values.

The guidance enters each policy as a stopgrad constant, so the function
``tape.backward`` differentiates is the rollout with the policies'
guidance inputs frozen at their base-point values; the running cost stays
live. Finite-difference checks reproduce that function by recording the
``guidance`` argument of every ``optimize.eval_control`` call during one
production ``bptt_rollout`` and passing those arrays in later rollouts.
"""
import itertools

from coopdiff import optimize


def record_guidance(monkeypatch) -> list:
    """Keep the guidance input of every ``optimize.eval_control`` call."""
    calls = []
    real = optimize.eval_control

    def recording(policy, x, y, t, guidance):
        calls.append(guidance.copy())
        return real(policy, x, y, t, guidance)

    monkeypatch.setattr(optimize, "eval_control", recording)
    return calls


def replay_guidance(monkeypatch, calls: list) -> None:
    """Feed the policies the recorded guidance instead of the live one.

    ``calls`` holds one rollout's calls; call n replays entry n mod len, so
    every later rollout on the same grid and policies starts again from
    its first step.
    """
    real = optimize.eval_control
    step = itertools.count()

    def replaying(policy, x, y, t, guidance):
        return real(policy, x, y, t, calls[next(step) % len(calls)])

    monkeypatch.setattr(optimize, "eval_control", replaying)
