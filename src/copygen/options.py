"""The training and synthesis configurations, the inference modes, the
ranking regimes and the rules on hyperparameter values: each ``*_problem``
function says what is wrong with a value, or returns None. The CLI reads its
defaults and choices from here; this module imports no numpy, so
``--threads`` still caps the BLAS thread pools before numpy loads.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import struct

# The softmax heads each mode mixes, over inputs x = [s; p; t_k]: pc is the
# copy head softmax(tanh(W_c x + b_c) + copy mask), pg the generation head
# softmax(W_g x + b_g), pg_new the generation head restricted to entities
# outside the history.
MODE_HEADS = {"full": ("pc", "pg"), "copy-only": ("pc",), "gen-only": ("pg",),
              "gen-new": ("pc", "pg_new")}
MODES = tuple(MODE_HEADS)


def heads_of(modes) -> list[str]:
    """The heads ``modes`` mix, each once, in the order ``MODE_HEADS`` names them."""
    return list(dict.fromkeys(head for heads in MODE_HEADS.values() for head in heads
                              if any(head in MODE_HEADS[mode] for mode in modes)))

REGIMES = ("raw", "static", "time-aware")


def require(problem: str | None) -> None:
    """Raise ``ValueError(problem)`` when a rule found one."""
    if problem:
        raise ValueError(problem)


def count_problem(name: str, value, least: int = 1) -> str | None:
    """The count ``name`` must be an integer, not a bool, and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return f"{name} must be an integer, got {value!r}"
    bound = "must be positive, got" if least == 1 else f"must be at least {least}, got"
    return None if value >= least else f"{name} {bound} {value}"


def alpha_problem(alpha: float) -> str | None:
    """A mixture weight must lie in [0, 1] (NaN does not)."""
    return None if 0.0 <= alpha <= 1.0 else f"alpha must lie in [0, 1], got {alpha}"


def magnitude_problem(mask_magnitude: float) -> str | None:
    """A copy-mask magnitude is judged as the checkpoint header stores it: a
    float32 that must be finite and positive (a larger value does not fit
    the header, a smaller one rounds to 0)."""
    try:
        (stored,) = struct.unpack("<f", struct.pack("<f", mask_magnitude))
    except OverflowError:
        stored = math.inf
    return (None if 0 < stored < math.inf
            else f"mask_magnitude is {mask_magnitude}, expected a finite float32 > 0")


def hyperparameter_problem(mask_magnitude: float, alpha: float) -> str | None:
    """The two hyperparameters a checkpoint header stores."""
    return magnitude_problem(mask_magnitude) or alpha_problem(alpha)


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
        # the values the trained checkpoint's header will store
        require(hyperparameter_problem(self.mask_magnitude, self.alpha))
        for name in ("dim", "batch_size", "epochs", "patience"):
            if name != "patience" or self.patience is not None:
                require(count_problem(name, getattr(self, name)))
        require(count_problem("seed", self.seed, least=0))
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


class CapacityError(ValueError):
    """More distinct facts demanded per snapshot than the id space holds."""


@dataclasses.dataclass
class SynthConfig:
    num_entities: int = 100
    num_relations: int = 5
    num_snapshots: int = 20
    facts_per_snapshot: int = 200
    recurrence: float = 0.5  # per-fact probability of copying from history
    seed: int = 0
    fixed_objects: bool = False  # each (s, p) pair keeps one object forever

    def __post_init__(self):
        for name in ("num_entities", "num_relations", "num_snapshots",
                     "facts_per_snapshot"):
            require(count_problem(name, getattr(self, name)))
        require(count_problem("seed", self.seed, least=0))
        if not 0.0 <= self.recurrence <= 1.0:
            raise ValueError(f"recurrence must lie in [0, 1], got {self.recurrence}")
        capacity = self.num_entities ** 2 * self.num_relations
        if self.facts_per_snapshot > capacity:
            raise CapacityError(
                f"{self.facts_per_snapshot} facts per snapshot exceed the "
                f"{capacity} distinct (s, p, o) combinations available")
