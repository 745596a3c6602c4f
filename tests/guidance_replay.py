"""Hold the learned control's guidance at recorded values.

The guidance enters a rollout as a stopgrad constant, so the function
``tape.backward`` differentiates is the rollout with the guidance frozen at
its base-point values. Finite-difference checks reproduce that function by
recording what ``optimize.tweedie_guidance`` returns during one production
``bptt_rollout`` and replaying those arrays in later rollouts.
"""
import itertools

from coopdiff import optimize


def record_guidance(monkeypatch) -> list:
    """Keep every result of ``optimize.tweedie_guidance``, in call order."""
    calls = []
    real = optimize.tweedie_guidance

    def recording(psi, agg, y0_hat):
        guidances = real(psi, agg, y0_hat)
        calls.append([g.copy() for g in guidances])
        return guidances

    monkeypatch.setattr(optimize, "tweedie_guidance", recording)
    return calls


def replay_guidance(monkeypatch, calls: list) -> None:
    """Return the recorded guidance instead of computing it.

    ``calls`` holds one rollout's steps; call n replays step n mod K, so
    every later rollout on the same grid starts again from step 0.
    """
    step = itertools.count()

    def replaying(psi, agg, y0_hat):
        return calls[next(step) % len(calls)]

    monkeypatch.setattr(optimize, "tweedie_guidance", replaying)
