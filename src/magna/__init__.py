"""Multi-hop attention graph networks with personalized-PageRank diffusion."""

from .analysis import (
    attention_discrepancy,
    discrepancy_from_attention,
    spectrum_report,
    verify_eigenvector_sharing,
)
from .attention import (
    AttentionHeadParams,
    attention_diffusion,
    attention_weights,
    edge_scores,
    exact_diffusion_oracle,
)
from .graph import (
    Graph,
    GraphFormatError,
    KgDataset,
    NodeDataset,
    load_kg_dataset,
    load_node_dataset,
)
from .linalg import dense_solve, sym_eigen
from .model import MagnaNet, NetworkConfig
from .optim import Adam, ParamStore, load_checkpoint, save_checkpoint
from .tape import Tensor, no_grad
from .tasks import (
    ClassifierHead,
    DistMultDecoder,
    RankingMetrics,
    cross_entropy_loss,
    kg_filtered_ranks,
    kl_label_smoothing_loss,
    ranking_metrics,
)
from .train import TrainConfig, TrainReport, train_kg, train_node_classifier

__version__ = "0.1.0"
