import numpy as np
import pytest

from iisan import backbone as bb
from iisan.errors import ConfigError, InputError


def _cfg(**kw):
    base = dict(modality="text", layers=2, hidden_dim=8,
                vocab_or_patch_count=64, max_positions=16, seed=5)
    base.update(kw)
    return bb.EncoderConfig(**base)


def test_fingerprint_same_config_same_seed():
    assert bb.fingerprint(_cfg()) == bb.fingerprint(_cfg())


def test_fingerprint_differs_across_seeds():
    assert bb.fingerprint(_cfg(seed=5)) != bb.fingerprint(_cfg(seed=6))


def test_encoder_state_count():
    enc = bb.FrozenEncoder(_cfg(layers=12, hidden_dim=64, vocab_or_patch_count=128))
    stack = bb.encode_item(enc, [1, 2, 3])
    assert stack.shape == (13, 64)
    assert stack.dtype == np.float32


def test_single_token_single_layer_shapes():
    enc = bb.FrozenEncoder(_cfg(layers=1))
    stack = bb.encode_item(enc, [7])
    assert stack.shape == (2, 8)
    assert np.isfinite(stack).all()


def test_encoding_is_deterministic():
    enc = bb.FrozenEncoder(_cfg())
    a = bb.encode_item(enc, [3, 1, 4, 1])
    b = bb.encode_item(enc, [3, 1, 4, 1])
    np.testing.assert_array_equal(a, b)


def test_equal_seed_encoders_are_bit_identical():
    e1 = bb.FrozenEncoder(_cfg())
    e2 = bb.FrozenEncoder(_cfg())
    for p1, p2 in zip(e1.parameters(), e2.parameters()):
        np.testing.assert_array_equal(p1.data, p2.data)


def test_permuting_later_tokens_changes_states():
    enc = bb.FrozenEncoder(_cfg())
    a = bb.encode_item(enc, [3, 1, 4, 1, 5])
    b = bb.encode_item(enc, [3, 5, 1, 4, 1])
    assert not np.array_equal(a[-1], b[-1])


def test_encoder_parameters_are_frozen_by_default():
    enc = bb.FrozenEncoder(_cfg())
    assert all(not p.trainable for p in enc.parameters())
    assert all(not p.tensor.requires_grad for p in enc.parameters())


def test_encoder_built_trainable_has_every_parameter_trainable():
    enc = bb.FrozenEncoder(_cfg(), trainable=True)
    assert all(p.trainable and p.tensor.requires_grad for p in enc.parameters())


def test_encode_input_validation():
    enc = bb.FrozenEncoder(_cfg())
    with pytest.raises(InputError):
        bb.encode_item(enc, [])
    with pytest.raises(InputError):
        bb.encode_item(enc, [64])
    with pytest.raises(InputError):
        bb.encode_item(enc, list(range(17)))
    ids = np.array([bb.item_tokens(enc.cfg, i) for i in range(3)])
    out_of_range = ids.copy()
    out_of_range[1, 2] = 64
    for bad in (np.zeros((3, 0), dtype=np.int64), np.zeros((3, 17), dtype=np.int64), out_of_range):
        with pytest.raises(InputError):
            bb.forward(enc, bad)


def test_batched_forward_equals_per_item_encode():
    """`encode_item` over an (items, tokens) id matrix, one `forward`, gives an
    (items, layers + 1, hidden_dim) float32 array whose rows are each item's own
    `encode_item` stack bit for bit: on c7's encoder pair and a wider image encoder."""
    for cfg in (bb.EncoderConfig("text", 24, 48, 512, 32, 11), bb.EncoderConfig("image", 12, 32, 256, 32, 22),
                _cfg(modality="image", layers=12, hidden_dim=64)):
        enc = bb.FrozenEncoder(cfg)
        ids = np.array([bb.item_tokens(cfg, i) for i in range(130)])
        batched = bb.encode_item(enc, ids)
        assert batched.shape == (130, cfg.layers + 1, cfg.hidden_dim) and batched.dtype == np.float32
        np.testing.assert_array_equal(batched, np.stack([bb.encode_item(enc, row) for row in ids]))


def test_odd_hidden_dim_rejected():
    with pytest.raises(ConfigError):
        bb.FrozenEncoder(_cfg(hidden_dim=7))
    with pytest.raises(ConfigError):
        bb.FrozenEncoder(_cfg(hidden_dim=0))


def test_item_tokens_deterministic_and_sized():
    text = _cfg()
    image = _cfg(modality="image")
    assert bb.item_tokens(text, 42) == bb.item_tokens(text, 42)
    assert len(bb.item_tokens(text, 42)) == 8
    assert len(bb.item_tokens(image, 42)) == 16
    assert bb.item_tokens(text, 42) != bb.item_tokens(text, 43)
    assert max(bb.item_tokens(text, 42)) < text.vocab_or_patch_count


# --- straight-line oracle -----------------------------------------------------

def _oracle_gelu(x):
    c, a = 0.7978845608028654, 0.044715
    return 0.5 * x * (1.0 + np.tanh(c * (x + a * x ** 3)))


def _oracle_layernorm(x, gain, offset, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + np.float32(eps)) * gain + offset


def _oracle_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _oracle_forward(enc, ids):
    """Independent numpy re-implementation of the encoder forward."""
    p = {q.name.split(".", 2)[-1]: q.data for q in enc.parameters()}
    s = len(ids)
    x = p["tokens"][ids] + p["positions"][:s]
    states = [x[0].copy()]
    dh = enc.cfg.hidden_dim // bb.HEADS
    for i in range(1, enc.cfg.layers + 1):
        blk = f"block{i}"
        h = _oracle_layernorm(x, p[f"{blk}.ln1.gain"], p[f"{blk}.ln1.offset"])
        q = h @ p[f"{blk}.wq.w"] + p[f"{blk}.wq.b"]
        k = h @ p[f"{blk}.wk.w"] + p[f"{blk}.wk.b"]
        v = h @ p[f"{blk}.wv.w"] + p[f"{blk}.wv.b"]
        heads = []
        for j in range(bb.HEADS):
            qh, kh, vh = (t[:, j * dh:(j + 1) * dh] for t in (q, k, v))
            heads.append(_oracle_softmax(qh @ kh.T / np.sqrt(np.float32(dh))) @ vh)
        x = x + (np.concatenate(heads, axis=1) @ p[f"{blk}.wo.w"] + p[f"{blk}.wo.b"])
        h2 = _oracle_layernorm(x, p[f"{blk}.ln2.gain"], p[f"{blk}.ln2.offset"])
        x = x + (_oracle_gelu(h2 @ p[f"{blk}.fc1.w"] + p[f"{blk}.fc1.b"]) @ p[f"{blk}.fc2.w"]
                 + p[f"{blk}.fc2.b"])
        states.append(x[0].copy())
    return np.stack(states)


def test_encode_matches_straight_line_oracle():
    enc = bb.FrozenEncoder(_cfg(layers=1, hidden_dim=4, vocab_or_patch_count=16, max_positions=4))
    ids = [3, 9]
    stack = bb.encode_item(enc, ids)
    expected = _oracle_forward(enc, np.asarray(ids))
    np.testing.assert_allclose(stack, expected, atol=1e-6)


def test_oracle_agreement_on_deeper_encoder():
    enc = bb.FrozenEncoder(_cfg(layers=3, hidden_dim=8))
    ids = [5, 2, 11, 40]
    stack = bb.encode_item(enc, ids)
    expected = _oracle_forward(enc, np.asarray(ids))
    np.testing.assert_allclose(stack, expected, atol=5e-6)
