"""Beat-synchronous onset labeler: model, loss, training, decoding.

Import each name from its module.  perfbench imports the eleven below
from here; they go when it imports from the defining modules.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import DESK_CONFIG, LabelerConfig
from .decode import decode
from .labels import densify_melody
from .model import forward_windowed
from .train import TrainExample, TrainSettings, reference_melody, train
