"""Labeler architecture configuration."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..errors import InputError
from .labels import vocab_by_name


@dataclass(frozen=True)
class LabelerConfig:
    """Shape of the encoder-only labeler.

    ``vocab`` selects the output head: "melody" (89 classes, octave-
    shiftable loss) or "chords" (97 classes, plain cross-entropy).
    """

    layers: int = 2
    model_dim: int = 64
    heads: int = 4
    ff_dim: int = 256
    input_dim: int = 229
    seed: int = 0
    vocab: str = "melody"
    dropout: float = 0.0

    def __post_init__(self) -> None:
        if min(self.layers, self.model_dim, self.heads, self.ff_dim, self.input_dim) < 1:
            raise InputError("all size fields must be at least 1")
        if self.model_dim % self.heads:
            raise InputError(
                f"model_dim {self.model_dim} not divisible by heads {self.heads}"
            )
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(f"dropout {self.dropout} outside [0, 1)")
        vocab_by_name(self.vocab)

    @property
    def n_classes(self) -> int:
        return vocab_by_name(self.vocab).n_classes

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    # perfbench/inputs.py calls these two; they go when perfbench uses
    # dataclasses.replace.
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "LabelerConfig":
        return cls(**obj)


#: Small configuration for tests and quick experiments.
DESK_CONFIG = LabelerConfig()

#: Full-size configuration used for real training runs.
FULL_CONFIG = LabelerConfig(
    layers=4, model_dim=512, heads=8, ff_dim=2048, dropout=0.1
)
