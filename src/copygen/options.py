"""The training configuration, the inference modes and the ranking regimes.
The CLI reads its defaults and choices from here; this module imports no
numpy, so ``--threads`` still caps the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

# The softmax heads each mode mixes, over inputs x = [s; p; t_k]: pc is the
# copy head softmax(tanh(W_c x + b_c) + copy mask), pg the generation head
# softmax(W_g x + b_g), pg_new the generation head restricted to entities
# outside the history.
MODE_HEADS = {"full": ("pc", "pg"), "copy-only": ("pc",), "gen-only": ("pg",),
              "gen-new": ("pc", "pg_new")}
MODES = tuple(MODE_HEADS)

REGIMES = ("raw", "static", "time-aware")


@dataclasses.dataclass
class TrainConfig:
    alpha: float = 0.8
    dim: int = 200
    learning_rate: float = 0.001
    batch_size: int = 1024
    epochs: int = 30
    seed: int = 0
    mask_magnitude: float = 100.0
    mean_loss: bool = False  # reduction over a batch; sum is the definition
    patience: int | None = None  # stop after this many epochs without improvement

    def __post_init__(self):
        from .model import hyperparameter_problem  # loads numpy, so not at module level

        # the values the trained checkpoint's header will store
        problem = hyperparameter_problem(self.mask_magnitude, self.alpha)
        if problem:
            raise ValueError(problem)
        for name in ("dim", "batch_size", "epochs", "patience"):
            value = getattr(self, name)
            if name == "patience" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("dim", "learning_rate", "batch_size", "epochs"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.patience is not None and self.patience <= 0:
            raise ValueError("patience must be positive when set")
