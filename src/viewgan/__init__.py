"""Two conditional generators complete missing views; one discriminator
with an extra fake class handles both adversarial training and multiclass
prediction. Includes an exact discrete-distribution oracle for the
equilibrium analysis behind the construction."""

from .data import (PartitionedDataset, SyntheticSpec, Views, block_class_means,
                   generate_synthetic, load_multiview_file, save_multiview_file,
                   split_for_protocol)
from .errors import ConfigError, DataFormatError, DimensionError, NumericError
from .evaluate import (ExperimentSpec, MetricsReport, Scenario, run_experiment,
                       train_singleview_baseline)
from .model import (TripartiteModel, decide_batch, discriminate, generate, load_checkpoint,
                    new_model, save_checkpoint)
from .nn import AdamState, ForwardTrace, Mlp, adam_step, backward, forward, init_mlp, xavier_init
from .theory import (DiscreteJoint, DiscriminatorTable, augmented_value,
                     brute_force_discriminator, check_theorem, jsd, kl, mixture,
                     optimal_discriminator, value_function)
from .train import (Minibatch, TrainConfig, complete, feature_matching_penalty,
                    loss_discriminator, loss_generator, real_feature_mean, sample_minibatch,
                    step)

__version__ = "0.1.0"
