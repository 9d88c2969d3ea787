"""Self-supervised entity representations from associated text.

Train a miniature transformer jointly over sentences and the entities they
describe (dual-encoder, extended-vocabulary, or hybrid objectives), then
rank entities for natural-language queries or predict tags, against
TF-IDF / bag-of-sentences / fixed-order baselines.
"""

from .encoder import (EncoderOutput, ModelConfig, ModelParams, encode, init_params,
                      load_checkpoint, mlm_logits, save_checkpoint)
from .errors import DataError, NumericError, TrainingDiverged
from .evaluation import (EvalConfig, RankedList, TfidfIndex, binarize, bos_rank,
                         mean_average_precision, mrr, ndcg_at_k, precision_at_k,
                         rank_items, recall_at_k, relevance, roc_auc,
                         top_tags_baseline, zero_shot_rank)
from .finetune import (FinetuneConfig, FinetuneResult, example_weight,
                       predict_tag_scores, run_finetune, split_holdout)
from .numerics import AdamState, adam_step, grad_check, value_and_grads
from .objectives import (LossOutput, MaskedBatch, TrainingConfig, build_batch,
                         mask_tokens, pretrain, pretrain_loss)
from .synthetic import SyntheticWorld, SyntheticWorldSpec, generate_synthetic
from .text import (CorpusExample, Query, TagVotes, Vocabulary, build_vocab,
                   extend_with_entities, preprocess, tokenize)

__version__ = "0.1.0"
