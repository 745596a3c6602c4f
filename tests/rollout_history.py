"""Record one rollout's trajectory from outside the rollout.

``optimize.coupled_rollout`` returns only the outputs its callers read.
A test that checks a whole trajectory records it here instead: it
replaces the one EM step the rollout takes per step,
``optimize.em_step``, which sees the step's states and controls and
returns the next states, and it wraps the terminal cost psi, whose
running-cost call at step k reads the aggregated Tweedie estimate
Y0_hat_k; the rollout's last psi call reads the aggregate of the final
states.
"""
import contextlib

from coopdiff import optimize


class History:
    """The per-step values of one rollout, in the layout
    ``oracles.soc_objective`` reads. Pass ``psi`` to the rollout in place
    of the terminal cost it wraps."""

    def __init__(self, grid, psi):
        self.times = grid.times
        self.dts = grid.dts
        self.states = []        # [k] -> (N, B, d), K + 1 of them
        self.controls = []      # [k] -> (N, B, d)
        self.psi_inputs = []    # [k] -> (B, d), K + 1 of them

        def recording_psi(y, grad=True):
            self.psi_inputs.append(y)
            return psi(y, grad)

        self.psi = recording_psi

    @property
    def y0_hats(self) -> list:
        return self.psi_inputs[:-1]

    @property
    def terminal_y(self):
        return self.psi_inputs[-1]

    @property
    def num_agents(self) -> int:
        return self.states[0].shape[0]

    @property
    def batch(self) -> int:
        return self.states[0].shape[1]


@contextlib.contextmanager
def recorded(grid, psi=None):
    """Yield a ``History`` that records every EM step taken inside."""
    history = History(grid, psi)
    real = optimize.em_step

    def recording(xs, *args, control):
        out = real(xs, *args, control=control)
        if not history.states:
            history.states.append(xs)
        history.states.append(out)
        history.controls.append(control)
        return out

    optimize.em_step = recording
    try:
        yield history
    finally:
        optimize.em_step = real
