"""Cross-domain gait embedding lab: supervised metric pretraining on a
labeled source domain, then unsupervised adaptation on an unlabeled target
via entropy-ranked neighborhood discovery and curriculum training.

Everything runs on numpy with hand-written gradients and seeded RNG
streams, so results are reproducible to the byte.
"""

from .numerics import (
    DegenerateInputError,
    make_rng,
    seed_stream,
)
from .encoder import (
    EncoderParams,
    EncoderShape,
    SilhouetteSequence,
    encode_backward,
    encode_batch,
    encode_sequence,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .losses import (
    EmptyTripletError,
    SoftmaxRow,
    anchor_neighborhood_loss,
    entropy,
    log_softmax_rows,
    neighborhood_loss,
    row_entropies,
    softmax_row,
    triplet_loss,
)
from .discovery import (
    CurriculumSchedule,
    MemoryBank,
    Neighborhood,
    bank_entropies,
    build_bank,
    discover_neighborhoods,
    rank_and_select,
    scan_bank,
    update_bank,
)
from .data import (
    CONDITIONS,
    Dataset,
    DatasetError,
    DomainSpec,
    SequenceRecord,
    generate_domain,
    load_dataset,
    load_manifest,
    sample_pk_batch,
)
from .evaluation import (
    EvalProtocol,
    ProtocolError,
    Rank1Result,
    make_protocol,
    rank1,
)
from .pipeline import (
    EpochRecord,
    RunLog,
    TrainConfig,
    adapt_target,
    lr_at,
    pretrain_source,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    default_source_spec,
    default_target_spec,
    load_config,
    preset_config,
    save_config,
    separable_source_spec,
)

__version__ = "0.1.0"

__all__ = [
    "CONDITIONS",
    "ConfigError",
    "CurriculumSchedule",
    "Dataset",
    "DatasetError",
    "DegenerateInputError",
    "DomainSpec",
    "EmptyTripletError",
    "EncoderParams",
    "EncoderShape",
    "EpochRecord",
    "EvalProtocol",
    "ExperimentConfig",
    "MemoryBank",
    "Neighborhood",
    "ProtocolError",
    "Rank1Result",
    "RunLog",
    "SequenceRecord",
    "SilhouetteSequence",
    "SoftmaxRow",
    "TrainConfig",
    "adapt_target",
    "anchor_neighborhood_loss",
    "apply_overrides",
    "bank_entropies",
    "build_bank",
    "default_source_spec",
    "default_target_spec",
    "discover_neighborhoods",
    "encode_backward",
    "encode_batch",
    "encode_sequence",
    "entropy",
    "generate_domain",
    "init_params",
    "load_checkpoint",
    "load_config",
    "load_dataset",
    "load_manifest",
    "log_softmax_rows",
    "lr_at",
    "make_protocol",
    "make_rng",
    "neighborhood_loss",
    "preset_config",
    "pretrain_source",
    "rank1",
    "rank_and_select",
    "row_entropies",
    "sample_pk_batch",
    "save_checkpoint",
    "save_config",
    "scan_bank",
    "seed_stream",
    "separable_source_spec",
    "softmax_row",
    "triplet_loss",
    "update_bank",
]
