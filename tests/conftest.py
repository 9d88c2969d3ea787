import numpy as np
import pytest
from scipy.special import erf

from textent.encoder import ModelConfig
from textent.synthetic import SyntheticWorldSpec, generate_synthetic

# Results of the acceptance criteria, printed after the run.
CRITERIA_RESULTS: list[tuple[bool, str]] = []


def record_criterion(ok: bool, line: str) -> None:
    CRITERIA_RESULTS.append((ok, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for ok, line in CRITERIA_RESULTS:
        terminalreporter.write_line(f"[{'PASS' if ok else 'FAIL'}] {line}")


SMALL_SPEC = SyntheticWorldSpec(entities=12, attribute_vocab=40,
                                attributes_per_entity=5, sentences_per_entity=10,
                                words_per_sentence=7, noise_ratio=0.2, seed=11,
                                clusters=2)


@pytest.fixture(scope="session")
def small_world():
    return generate_synthetic(SMALL_SPEC)


@pytest.fixture(scope="session")
def tiny_configs(small_world):
    vocab = small_world.vocab
    return {v: ModelConfig.for_vocab(vocab, v, layers=2, heads=2, hidden=16,
                                     ffn_hidden=32, entity_dim=16)
            for v in ("dual", "full", "hybrid")}


def mixed_examples(world, count, offset=0):
    """Examples spread over distinct entities."""
    per_entity = world.spec.sentences_per_entity
    return [world.corpus[(i * per_entity + i + offset) % len(world.corpus)]
            for i in range(count)]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


# -- numpy references for the heads ------------------------------------------------
#
# The library computes the heads and the array-level layer norm through the
# autodiff graph ops. These plain formulas are the independent reference the
# head tests pin them against.


def gelu_ref(x):
    return 0.5 * x * (1.0 + erf(x * 0.7071067811865476))


def layer_norm_ref(x, gain, bias, eps=1e-12):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def mlm_logits_ref(rows, tensors):
    """Tied masked-token head: dense, GELU, layer norm, then token_emb.T."""
    t = tensors
    x = gelu_ref(rows @ t["mlm_dense_w"] + t["mlm_dense_b"])
    x = layer_norm_ref(x, t["mlm_ln_g"], t["mlm_ln_b"])
    return x @ t["token_emb"].T + t["mlm_out_b"]


def hybrid_mlm_logits_ref(rows, entity_vec, tensors):
    """Untied head over concat(hidden, entity embedding)."""
    t = tensors
    joined = np.concatenate([rows, np.tile(entity_vec, (len(rows), 1))], axis=1)
    x = gelu_ref(joined @ t["hyb_dense_w"] + t["hyb_dense_b"])
    x = layer_norm_ref(x, t["hyb_ln_g"], t["hyb_ln_b"])
    return x @ t["hyb_out_w"] + t["hyb_out_b"]
