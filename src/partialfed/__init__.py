"""Deterministic single-process simulator for partially local federated
learning: global parameters are trained by federated aggregation while local
parameters are reconstructed on clients every round and never communicated.
"""

__version__ = "0.1.0"

from .core import (
    Batch,
    ClientDataset,
    Example,
    GradCheckReport,
    Metric,
    ModelSpec,
    ParamBlock,
    RngStreams,
    axpy_blocks,
    check_gradients,
)
from .models import (
    MatFacConfig,
    NwpConfig,
    TokenCodec,
    matfac_spec,
    oov_nwp_spec,
    rating_accuracy,
    rmse,
)
from .client import (
    ClientHyper,
    ClientUpdateResult,
    MetaGradientReport,
    SplitPolicy,
    client_update,
    reconstruct,
    run_client_round,
    split_dataset,
    verify_first_order_meta_gradient,
)
from .server import (
    RoundReport,
    ServerOptimizer,
    TrainResult,
    aggregate,
    run_training,
    sample_clients,
    server_step,
)
from .baselines import finetune_eval, train_centralized, train_fedavg
from .evaluation import (
    CommRecord,
    EvalMode,
    comm_ledger_report,
    params_to_reach,
    recon_eval,
    standard_eval,
)
from .data import (
    SentenceRecord,
    SyntheticMFConfig,
    gen_synthetic_corpus,
    gen_synthetic_mf,
    load_token_corpus,
    parse_movielens,
    split_each_client_by_time,
    split_users,
    write_token_corpus,
)
from .config import ExperimentConfig, config_from_dict, config_to_dict, load_config
from .runner import (
    grid_search,
    read_params,
    rerun_manifest,
    run_experiment,
    sweep_steps,
    tradeoff_curves,
    write_params,
)
