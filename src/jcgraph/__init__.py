"""Transductive node classification comparing independent cross-entropy
against joint-cluster training with marginalized inference."""

from .graph import (Dataset, DatasetFormatError, Graph, LabelSet, SplitMasks,
                    gen_sbm, imbalance_ratio, load_dataset, normalize_adjacency,
                    spmm, write_dataset)
from .losses import (ClusterStats, ce_loss, cluster_stats, ic_loss, jc_loss,
                     jc_multilabel_loss, joint_forward, joint_label,
                     marginalize, mixup_loss)
from .metrics import accuracy, ece, f1_scores, loss_gap
from .nn import (ModelSpec, NumericsError, adam_step, encoder_forward, grad_check,
                 init_params, model_backward)
from .partition import (ClusterAssignment, CutStats, edge_cut_stats,
                        partition_kmeans, partition_metis_like, partition_random)
from .attack import AttackSpec, random_attack, robustness_sweep
from .trainer import (MultiSeedResult, RunResult, TrainConfig, TrainingError,
                    evaluate, multi_seed, train)

__version__ = "0.1.0"
