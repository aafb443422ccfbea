"""KV-cache compression through the token-precision trade-off.

Prefill-time token eviction (streaming sinks, cumulative attention,
observation-window scoring, pyramid layer budgets) composed with group-wise
low-bit quantization, an attention-only toy decoder to drive it end to end,
and a deterministic sweep harness for retrieval experiments.
"""

from .budget import (
    BudgetPlan,
    LayerOverride,
    apply_overrides,
    plan_bytes,
    plan_for_tokens,
    pyramid_allocation,
)
from .cache import CompressedKVCache, dump_snapshot, load_snapshot, prefill_compress
from .errors import ContractViolation, IntegrityError
from .model import (
    Model,
    ModelConfig,
    Weights,
    build_recall_model,
    decode_step,
    decode_step_dense,
    load_weights,
    prefill,
    random_model,
    save_weights,
)
from .prune import (
    PolicyConfig,
    PolicyKind,
    PruneDecision,
    ScoreContext,
    score_h2o,
    score_snapkv,
    score_streaming,
    top_k_indices,
)
from .quant import (
    Layout,
    QuantConfig,
    QuantizedTensor,
    dequantize_matrix,
    quantize_matrix,
    quantized_bytes,
)
from .sweep import SweepConfig, emit_csv, parse_config, run_sweep
from .tasks import gen_recall_task

__version__ = "0.1.0"
