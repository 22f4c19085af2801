"""Autoencoder architecture tests: shapes, causality, mirror, checkpointing."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mutations import mutate
from oracles import checkpoint_offset

from lossyad.errors import (ContractError, DimensionError, DomainError,
                            LossyadError, ParseError)
from lossyad.model import (KERNEL_WIDTH, LAYERS_PER_BLOCK, TcnAutoencoder, TcnConfig,
                           config_hash, load_checkpoint, save_checkpoint)
from lossyad.numerics import RngState, Tensor, backward, functional as F


def toy_config(**kw):
    base = dict(input_channels=2, window_length=16, blocks=2, channel_width=4,
                latent_dim=8)
    base.update(kw)
    return TcnConfig(**base)


class TestConfig:
    def test_default_receptive_field_covers_window(self):
        cfg = TcnConfig()
        assert cfg.receptive_field >= cfg.window_length

    def test_receptive_field_of_the_fixed_block(self):
        # KERNEL_WIDTH 3, LAYERS_PER_BLOCK 2: 4 samples per unit of dilation
        assert (KERNEL_WIDTH, LAYERS_PER_BLOCK) == (3, 2)
        assert toy_config(blocks=3).receptive_field == 1 + 4 * (1 + 2 + 4)

    def test_dilation_schedule_is_powers_of_two(self):
        cfg = TcnConfig()
        assert cfg.dilations == tuple(2 ** l for l in range(8))

    def test_wrong_dilations_rejected(self):
        # The schedule is derived from `blocks`; it cannot be set.
        with pytest.raises(TypeError):
            toy_config(dilations=(1, 3))
        assert toy_config(blocks=3).dilations == (1, 2, 4)

    def test_latent_must_compress(self):
        with pytest.raises(ContractError):
            toy_config(latent_dim=2 * 16)

    def test_dict_roundtrip(self):
        cfg = toy_config()
        assert TcnConfig.from_dict(cfg.to_dict()) == cfg


class TestEncodeDecode:
    def test_zero_input_zero_biases_gives_latent_bias(self):
        m = TcnAutoencoder(toy_config(), seed=1)
        m.latent_b.data = np.arange(8.0)
        y = m.encode(np.zeros((2, 16)))
        # conv biases are zero-initialized, so the stack maps 0 -> 0
        np.testing.assert_allclose(y.data, np.arange(8.0), atol=1e-12)

    def test_encode_deterministic(self):
        m = TcnAutoencoder(toy_config(), seed=2)
        x = np.random.default_rng(0).normal(size=(2, 16))
        assert np.array_equal(m.encode(x).data, m.encode(x).data)

    def test_encoder_stack_causality(self):
        m = TcnAutoencoder(toy_config(), seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 16))
        base = m.encoder_stack(x).data
        for t in [0, 4, 9, 15]:
            xx = x.copy()
            xx[0, t] += 1.0
            pert = m.encoder_stack(xx).data
            assert np.array_equal(base[:, :t], pert[:, :t])

    def test_decode_zero_network_gives_zero(self):
        m = TcnAutoencoder(toy_config(), seed=4)
        for p in m.parameters(include_density=False):
            p.data[...] = 0.0
        out = m.decode(np.ones(8))
        np.testing.assert_array_equal(out.data, np.zeros((2, 16)))

    def test_decode_shape_and_determinism(self):
        m = TcnAutoencoder(toy_config(), seed=5)
        z = np.random.default_rng(2).normal(size=8)
        out1, out2 = m.decode(z), m.decode(z)
        assert out1.data.shape == (2, 16)
        assert np.array_equal(out1.data, out2.data)

    def test_shape_mismatch_rejected(self):
        m = TcnAutoencoder(toy_config(), seed=6)
        with pytest.raises(DimensionError):
            m.encode(np.zeros((3, 16)))
        with pytest.raises(DimensionError):
            m.decode(np.zeros(9))


class TestForwardTrain:
    def test_zero_noise_makes_both_decodes_equal(self):
        m = TcnAutoencoder(toy_config(), seed=7)
        x = np.random.default_rng(3).normal(size=(2, 16))
        x_hat, x_tilde, _ = m.forward_train_with_noise(x, np.zeros(8))
        np.testing.assert_array_equal(x_hat.data, x_tilde.data)

    def test_rate_non_negative(self):
        m = TcnAutoencoder(toy_config(), seed=8)
        rng = RngState(4)
        for _ in range(5):
            x = rng.normal(size=(2, 16))
            _, _, rate = m.forward_train(x, rng)
            assert rate.item() >= 0.0

    def test_gradient_reaches_encoder_through_both_branches(self):
        # Perturb away from the zero-initialized block tails so the check
        # runs at a generic parameter point.
        m = TcnAutoencoder(toy_config(), seed=9)
        prng = np.random.default_rng(4)
        for p in m.parameters(include_density=False):
            p.data += prng.normal(0.0, 0.05, size=p.data.shape)
        x = np.random.default_rng(5).normal(size=(2, 16))
        noise = np.random.default_rng(6).uniform(-0.5, 0.5, size=8)
        x_hat, x_tilde, rate = m.forward_train_with_noise(x, noise)
        loss = F.add(rate, F.add(F.scale(F.mse(Tensor(x), x_hat), 10.0),
                                 F.scale(F.mse(x_hat, x_tilde), 10.0)))
        backward(loss)
        for blk in m.encoder_blocks:
            assert np.any(blk.convs[0][0].grad != 0.0)
            assert np.any(blk.res_w.grad != 0.0)

    def test_requires_bottleneck(self):
        m = TcnAutoencoder(toy_config(bottleneck_enabled=False), seed=10)
        with pytest.raises(ContractError):
            m.forward_train(np.zeros((2, 16)), RngState(0))


class TestForwardEval:
    def test_ae_mode_is_plain_autoencoder(self):
        m = TcnAutoencoder(toy_config(bottleneck_enabled=False), seed=11)
        x = np.random.default_rng(7).normal(size=(2, 16))
        np.testing.assert_array_equal(m.forward_eval(x).data, m.ae_reconstruct(x).data)

    def test_round_path_consumes_no_rng(self):
        m = TcnAutoencoder(toy_config(), seed=12)
        x = np.random.default_rng(8).normal(size=(2, 16))
        a = m.forward_eval(x).data
        b = m.forward_eval(x).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bias", [[1e20, np.nan], [np.inf, 0.0], [-2.0 ** 63, 0.0]])
    def test_latent_int64_cannot_hold_is_domain_error(self, bias):
        # a diverged model's latent must not wrap to -2^63 on the cast
        m = TcnAutoencoder(toy_config(), seed=13)
        m.latent_b.data[:2] = bias
        with pytest.raises(DomainError, match="int64"):
            m.latent_symbols(np.zeros((2, 16)))

    def test_round_path_decodes_integer_latent(self):
        m = TcnAutoencoder(toy_config(), seed=13)
        x = np.random.default_rng(9).normal(size=(2, 16))
        sym = m.latent_symbols(x)
        assert sym.dtype == np.int64
        np.testing.assert_array_equal(
            m.forward_eval(x).data, m.decode(sym.astype(float)).data)


class TestArchitectureInvariants:
    def test_conv_weight_size_mirror(self):
        for cfg in [toy_config(), toy_config(input_channels=3, channel_width=6, blocks=3)]:
            m = TcnAutoencoder(cfg, seed=14)

            def sizes(side):
                return sorted(p.data.size for p in m.parameters()
                              if p.name.startswith(side) and p.name.endswith(".weight"))

            assert sizes("encoder.") == sizes("decoder.")

    def test_residual_identity_blocks(self):
        cfg = toy_config()
        m = TcnAutoencoder(cfg, seed=15)
        x = np.random.default_rng(10).normal(size=(4, 16))
        for blk in m.encoder_blocks[1:] + m.decoder_blocks[:-1]:
            for w, b in blk.convs:
                w.data[...] = 0.0
                b.data[...] = 0.0
            blk.res_w.data[...] = np.eye(4)[:, :, None]
            blk.res_b.data[...] = 0.0
            out = blk.forward(Tensor(x))
            np.testing.assert_array_equal(out.data, x)

    def test_density_parameters_live_in_model(self):
        m = TcnAutoencoder(toy_config(), seed=16)
        names = {p.name for p in m.parameters()}
        assert any(n.startswith("bottleneck.") for n in names)
        assert len(m.parameters(include_density=False)) < len(m.parameters())


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        m = TcnAutoencoder(toy_config(), seed=17)
        m.omega = np.array([0.5, 2.0])
        save_checkpoint(m, tmp_path, codec_support=(np.full(8, -9), np.full(8, 9)))
        m2, manifest, codec = load_checkpoint(tmp_path)
        for p, q in zip(m.parameters(), m2.parameters()):
            assert p.name == q.name
            assert np.array_equal(p.data, q.data)
        assert np.array_equal(m.omega, m2.omega)
        assert codec is not None
        assert manifest["config_hash"]

    def test_rewrite_is_byte_identical(self, tmp_path):
        m = TcnAutoencoder(toy_config(), seed=18)
        a, _ = save_checkpoint(m, tmp_path / "a")
        b, _ = save_checkpoint(m, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a" / "manifest.json").read_text() == \
               (tmp_path / "b" / "manifest.json").read_text()

    @staticmethod
    def saved(tmp_path):
        save_checkpoint(TcnAutoencoder(toy_config(), seed=20), tmp_path)
        path = tmp_path / "manifest.json"
        return path, json.loads(path.read_text())

    def test_missing_parameter_rejected(self, tmp_path):
        path, manifest = self.saved(tmp_path)
        manifest["parameters"].pop(3)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="differ from the model's"):
            load_checkpoint(tmp_path)

    def test_unknown_parameter_rejected(self, tmp_path):
        path, manifest = self.saved(tmp_path)
        manifest["parameters"][3]["name"] = "encoder.block9.conv0.weight"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="differ from the model's"):
            load_checkpoint(tmp_path)

    def test_swapped_parameters_rejected(self, tmp_path):
        # checkpoint.bin follows model order, so the manifest must too
        path, manifest = self.saved(tmp_path)
        table = manifest["parameters"]
        table[2], table[3] = table[3], table[2]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="order"):
            load_checkpoint(tmp_path)

    def test_version_1_manifest_rejected(self, tmp_path):
        path, manifest = self.saved(tmp_path)
        manifest["format_version"] = 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="checkpoint version 1"):
            load_checkpoint(tmp_path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        path, manifest = self.saved(tmp_path)
        name = manifest["parameters"][3]["name"]
        offset = checkpoint_offset(manifest, name)
        blob = bytearray((tmp_path / "checkpoint.bin").read_bytes())
        blob[offset: offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
        (tmp_path / "checkpoint.bin").write_bytes(bytes(blob))
        with pytest.raises(ParseError, match=f"{name} holds a non-finite"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_omega_rejected(self, tmp_path, bad):
        path, manifest = self.saved(tmp_path)
        manifest["omega"][1] = bad
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="omega"):
            load_checkpoint(tmp_path)

    def test_truncated_blob_rejected(self, tmp_path):
        self.saved(tmp_path)
        blob = tmp_path / "checkpoint.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(ParseError, match="bytes"):
            load_checkpoint(tmp_path)

    def test_config_edited_without_its_hash_rejected(self, tmp_path):
        path, manifest = self.saved(tmp_path)
        manifest["config"]["channel_width"] = 5
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="config_hash"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("hidden_layers", 3), ("dilations", [1, 2]), ("kernel_width", 3),
        ("layers_per_block", 2), ("density_filters", [3, 3, 3]),
        ("density_init_scale", 10.0), ("likelihood_floor", 1e-9)])
    def test_config_rejected_by_tcn_config_is_parse_error(self, tmp_path, key, value):
        # Manifests written while `dilations`, the kernel width, the layers
        # per block or the density's stack were config fields carry them.
        path, manifest = self.saved(tmp_path)
        manifest["config"][key] = value
        manifest["config_hash"] = config_hash(manifest["config"])
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path)

    def test_edited_codec_frequency_rejected(self, tmp_path):
        m = TcnAutoencoder(toy_config(), seed=21)
        save_checkpoint(m, tmp_path, codec_support=(np.full(8, -9), np.full(8, 9)))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        freqs = manifest["density_tables"]["frequencies"][2]
        freqs[0] += 1
        freqs[-1] -= 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParseError, match="frequencies"):
            load_checkpoint(tmp_path)

    @staticmethod
    def traced_peak(fn, *args):
        """fn(*args) and the tracemalloc peak it adds to what was held."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # At the TcnConfig defaults the parameters take 38.3 MiB; neither save
    # nor load makes a copy of the whole blob.
    def test_save_streams_each_parameter_to_the_file(self, tmp_path):
        m = TcnAutoencoder(TcnConfig(), seed=23)
        _, peak = self.traced_peak(save_checkpoint, m, tmp_path)
        assert peak < 2 * 2 ** 20

    def test_load_holds_the_model_and_the_values_read(self, tmp_path):
        # the model it builds plus the values it reads: 2 parameter sizes,
        # and 4 MiB for the manifest and the finite checks
        m = TcnAutoencoder(TcnConfig(), seed=23)
        save_checkpoint(m, tmp_path)
        param_bytes = sum(p.data.nbytes for p in m.parameters())
        (loaded, _, _), peak = self.traced_peak(load_checkpoint, tmp_path)
        assert peak < 2 * param_bytes + 4 * 2 ** 20
        for p, q in zip(m.parameters(), loaded.parameters()):
            assert p.data.tobytes() == q.data.tobytes()

    def test_same_seed_same_init(self):
        m1 = TcnAutoencoder(toy_config(), seed=19)
        m2 = TcnAutoencoder(toy_config(), seed=19)
        for p, q in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(p.data, q.data)


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory):
    """manifest.json and checkpoint.bin bytes of a toy model with codec tables."""
    out = tmp_path_factory.mktemp("ckpt")
    m = TcnAutoencoder(toy_config(), seed=22)
    save_checkpoint(m, out, codec_support=(np.full(8, -9), np.full(8, 9)))
    return {name: (out / name).read_bytes()
            for name in ("manifest.json", "checkpoint.bin")}


@given(st.sampled_from(["manifest.json", "checkpoint.bin"]), st.data())
def test_mutated_checkpoint_loads_or_is_a_typed_error(tmp_path_factory, saved_checkpoint,
                                                      name, data):
    out = tmp_path_factory.getbasetemp() / "mutated_ckpt"
    out.mkdir(exist_ok=True)
    for file, raw in saved_checkpoint.items():
        (out / file).write_bytes(mutate(data, raw) if file == name else raw)
    try:
        load_checkpoint(out)
    except LossyadError:
        pass
