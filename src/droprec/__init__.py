"""droprec: dropped-pronoun recovery for pro-drop text.

Two MLP stages over context word embeddings: detect which inter-token
gaps hide a dropped pronoun, then generate the explicit pronoun for each
detected gap.  Ships with corpus tooling, a seeded synthetic-data
generator, and an evaluation harness.
"""

from .corpus import (
    ACTUAL10,
    FULL14,
    PRONOUN_LABELS,
    AnnotatedSentence,
    Corpus,
    CorpusError,
    LabelSet,
    PronounLabel,
    label_set_by_name,
    load_corpus,
    save_corpus,
    split_corpus,
)
from .embeddings import (
    EmbeddingError,
    EmbeddingTable,
    context_embedding,
    context_rows,
    deterministic_fallback_table,
    load_embeddings,
)
from .evaluate import (
    EvalReport,
    SignificanceResult,
    evaluate_dpg,
    evaluate_dpi,
    paired_significance,
)
from .hypotheses import Instance, build_dpg_instances, build_dpi_instances
from .mlp import (
    Hyperparams,
    MlpModel,
    ModelFormatError,
    NumericError,
    build_model,
    train,
)
from .pipeline import (
    RecoveredSentence,
    RecoveryModel,
    load_recovery_model,
    recover,
    save_recovery_model,
    train_recovery,
)
from .synth import TemplateGrammar, builtin_grammar, generate_corpus

__version__ = "0.1.0"
