import numpy as np
import pytest

from edrisk.mlp import (
    SELU_ALPHA,
    SELU_LAMBDA,
    Architecture,
    BadMagic,
    MLPError,
    MLPModel,
    ShapeCorruption,
    ShapeMismatch,
    forward_batch,
    hidden_activations,
    init,
    load_model,
    n_params,
    save_model,
    selu,
    selu_prime,
    sigmoid,
)


def random_model(rng, p, hidden):
    m = init(Architecture.custom(hidden), p, seed=int(rng.integers(1 << 30)))
    # non-zero biases so the oracle exercises every term
    for b in m.biases:
        b[:] = rng.normal(size=b.shape)
    m.out_b = float(rng.normal())
    return m


def oracle_forward(model, x):
    """Literal per-unit evaluation with Python loops, under the model's SELU constants."""
    lam, alpha = model.selu_lambda, model.selu_alpha
    h = list(x)
    for W, b in zip(model.weights, model.biases):
        nxt = []
        for j in range(W.shape[1]):
            z = b[j] + sum(h[i] * W[i, j] for i in range(W.shape[0]))
            if z > 0:
                nxt.append(lam * z)
            else:
                nxt.append(lam * alpha * (np.exp(z) - 1.0))
        h = nxt
    z = model.out_b + sum(h[i] * model.out_w[i] for i in range(len(h)))
    return 1.0 / (1.0 + np.exp(-z))


class TestSelu:
    def test_zero(self):
        assert selu(0.0) == 0.0

    def test_unit_positive(self):
        assert abs(selu(1.0) - 1.0507) < 1e-4
        assert selu(1.0) == SELU_LAMBDA

    def test_negative_asymptote(self):
        assert abs(selu(-20.0) - (-SELU_LAMBDA * SELU_ALPHA)) < 1e-6

    def test_elementwise_matches_scalar(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=3.0, size=200)
        expected = np.array([selu(float(v)) for v in z])
        np.testing.assert_allclose(selu(z), expected, rtol=0, atol=0)

    def test_no_overflow_large_inputs(self):
        z = np.array([-1e4, -750.0, 750.0, 1e4])
        out = selu(z)
        assert np.all(np.isfinite(out))
        d = selu_prime(z)
        assert np.all(np.isfinite(d))

    def test_prime_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        z = rng.normal(scale=2.0, size=100)
        z = z[np.abs(z) > 1e-3]  # keep clear of the kink
        h = 1e-7
        fd = (selu(z + h) - selu(z - h)) / (2 * h)
        np.testing.assert_allclose(selu_prime(z), fd, rtol=1e-5)

    def test_prime_at_zero_uses_left_branch(self):
        assert selu_prime(0.0) == SELU_LAMBDA * SELU_ALPHA

    def test_continuous_at_zero(self):
        eps = 1e-12
        assert abs(selu(eps) - selu(-eps)) < 1e-10


class TestSigmoid:
    def test_half_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        z = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)

    def test_extreme_inputs_stay_finite(self):
        out = sigmoid(np.array([-1e6, 1e6]))
        assert out[0] == 0.0 and out[1] == 1.0

    def test_strictly_increasing(self):
        z = np.linspace(-10, 10, 201)
        assert np.all(np.diff(sigmoid(z)) > 0)


class TestArchitecture:
    def test_named(self):
        assert Architecture.named("nn2").hidden == [50, 50]
        assert Architecture.named("NN4").hidden == [50] * 4
        assert Architecture.named("nn8").hidden == [50] + [20] * 7

    def test_unknown_rejected(self):
        with pytest.raises(MLPError):
            Architecture.named("nn3")

    def test_custom_validation(self):
        with pytest.raises(MLPError):
            Architecture.custom([])
        with pytest.raises(MLPError):
            Architecture.custom([5, 0])


class TestInit:
    def test_shapes_and_zero_biases(self):
        m = init(Architecture.named("nn8"), p=30, seed=0)
        assert m.layer_sizes == [30, 50, 20, 20, 20, 20, 20, 20, 20]
        assert [W.shape for W in m.weights] == list(zip(m.layer_sizes[:-1], m.layer_sizes[1:]))
        assert all(np.all(b == 0) for b in m.biases)
        assert m.out_w.shape == (20,)
        assert m.out_b == 0.0

    def test_default_scale_is_inverse_fan_in(self):
        m = init(Architecture.custom([400]), p=400, seed=3)
        assert abs(m.weights[0].std() - np.sqrt(1.0 / 400)) < 0.003

    def test_deterministic(self):
        a = init(Architecture.named("nn2"), p=10, seed=9)
        b = init(Architecture.named("nn2"), p=10, seed=9)
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)
        c = init(Architecture.named("nn2"), p=10, seed=10)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_bad_args(self):
        with pytest.raises(MLPError):
            init(Architecture.named("nn2"), p=0, seed=0)


class TestForward:
    def test_zero_weights_give_half(self):
        m = init(Architecture.named("nn2"), p=4, seed=0)
        for W in m.weights:
            W[:] = 0.0
        m.out_w[:] = 0.0
        assert forward_batch(m, np.zeros((1, 4)))[0] == 0.5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = int(rng.integers(1, 6))
            hidden = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
            m = random_model(rng, p, hidden)
            x = rng.normal(size=p)
            assert abs(forward_batch(m, x[None])[0] - oracle_forward(m, x)) < 1e-12

    def test_uses_model_selu_constants(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, 5, [6, 4])
        X = rng.normal(size=(20, 5))
        default = forward_batch(m, X)
        m.selu_lambda = 1.1
        changed = forward_batch(m, X)
        assert np.all(changed != default)
        for x, p in zip(X, changed):
            assert abs(p - oracle_forward(m, x)) < 1e-12

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(6)
        m = random_model(rng, 7, [6, 4])
        X = rng.normal(size=(20, 7))
        batch = forward_batch(m, X)
        rows = np.array([forward_batch(m, x[None])[0] for x in X])
        np.testing.assert_allclose(batch, rows, atol=1e-15)

    def test_empty_batch(self):
        m = init(Architecture.named("nn2"), p=3, seed=0)
        out = forward_batch(m, np.empty((0, 3)))
        assert out.shape == (0,)

    def test_shape_mismatch(self):
        m = init(Architecture.named("nn2"), p=3, seed=0)
        with pytest.raises(ShapeMismatch):
            forward_batch(m, np.zeros((1, 4)))
        with pytest.raises(ShapeMismatch):
            forward_batch(m, np.zeros((2, 5)))

    def test_hidden_activation_count(self):
        m = init(Architecture.named("nn8"), p=5, seed=0)
        hs = hidden_activations(m, np.zeros((3, 5)))
        assert len(hs) == 8
        assert hs[0].shape == (3, 50)
        assert hs[-1].shape == (3, 20)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 5, [8, 8])
        P = forward_batch(m, rng.normal(scale=10, size=(100, 5)))
        assert np.all((P > 0) & (P < 1))


def reference_save(model, path):
    """The MLP1 writer as it was when parameters lived in per-layer arrays."""
    with open(path, "wb") as f:
        f.write(
            f"MLP1\ndepth={model.depth}\nsizes={','.join(str(s) for s in model.layer_sizes)}\n"
            f"lambda={model.selu_lambda!r}\nalpha={model.selu_alpha!r}\nend\n".encode("ascii")
        )
        for W, b in zip(model.weights, model.biases):
            f.write(np.ascontiguousarray(W, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(model.out_w, dtype="<f8").tobytes())
        f.write(np.float64(model.out_b).astype("<f8").tobytes())


class TestFlatLayout:
    def test_n_params(self):
        assert n_params([3, 4, 5]) == 3 * 4 + 4 + 4 * 5 + 5 + 5 + 1
        m = init(Architecture.named("nn8"), p=30, seed=0)
        assert m.theta.shape == (n_params(m.layer_sizes),)

    @pytest.mark.parametrize("arch", ["nn2", "nn4", "nn8", "custom"])
    def test_file_matches_per_layer_writer(self, tmp_path, arch):
        rng = np.random.default_rng(12)
        if arch == "custom":
            m = random_model(rng, 6, [5, 4, 3])
        else:
            m = init(Architecture.named(arch), p=17, seed=4)
            m.out_b = 0.25
        save_model(m, tmp_path / "flat.mlp")
        reference_save(m, tmp_path / "ref.mlp")
        assert (tmp_path / "flat.mlp").read_bytes() == (tmp_path / "ref.mlp").read_bytes()

    def test_views_write_through_at_file_offsets(self):
        m = init(Architecture.custom([4, 5]), p=3, seed=0)
        # file order: W0 (3x4) at 0, b0 at 12, W1 (4x5) at 16, b1 at 36, out_w at 41, out_b at 46
        m.weights[1][2, 3] = 7.0
        m.biases[0][1] = 8.0
        m.out_w[4] = 9.0
        m.out_b = 10.0
        assert m.theta[16 + 2 * 5 + 3] == 7.0
        assert m.theta[12 + 1] == 8.0
        assert m.theta[41 + 4] == 9.0
        assert m.theta[46] == 10.0 and m.theta.size == 47
        m.theta[0] = 11.0
        assert m.weights[0][0, 0] == 11.0

    def test_wrong_theta_length_rejected(self):
        with pytest.raises(ShapeMismatch):
            MLPModel([3, 2], np.zeros(n_params([3, 2]) + 1))

    def test_copy_shares_no_memory(self):
        m = random_model(np.random.default_rng(13), 4, [3, 2])
        c = m.copy()
        assert not np.shares_memory(c.theta, m.theta)
        np.testing.assert_array_equal(c.theta, m.theta)
        c.weights[0][:] = 0.0
        c.out_b = 5.0
        assert np.any(m.weights[0] != 0.0) and m.out_b != 5.0

    def test_loaded_theta_is_owned_and_writeable(self, tmp_path):
        m = random_model(np.random.default_rng(14), 4, [3])
        save_model(m, tmp_path / "m.mlp")
        loaded = load_model(tmp_path / "m.mlp")
        assert loaded.theta.flags.writeable and loaded.theta.flags.owndata
        assert loaded.theta.dtype == np.float64
        loaded.out_w[0] += 1.0
        assert loaded.theta[-4] == m.theta[-4] + 1.0  # a 3-unit head: out_w is theta[-4:-1]


class TestModelIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        m = random_model(rng, 6, [5, 4, 3])
        path = tmp_path / "m.mlp"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.layer_sizes == m.layer_sizes
        for Wa, Wb in zip(loaded.weights, m.weights):
            np.testing.assert_array_equal(Wa, Wb)
        for ba, bb in zip(loaded.biases, m.biases):
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(loaded.out_w, m.out_w)
        assert loaded.out_b == m.out_b
        assert loaded.selu_lambda == m.selu_lambda

    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(9)
        m = random_model(rng, 4, [6, 6])
        path = tmp_path / "m.mlp"
        save_model(m, path)
        loaded = load_model(path)
        X = rng.normal(size=(50, 4))
        np.testing.assert_array_equal(forward_batch(m, X), forward_batch(loaded, X))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mlp"
        path.write_bytes(b"NOPE\nend\n")
        with pytest.raises(BadMagic):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        m = random_model(rng, 4, [3])
        path = tmp_path / "m.mlp"
        save_model(m, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ShapeCorruption):
            load_model(path)
        path.write_bytes(data[:-3])  # not a whole number of float64 values
        with pytest.raises(ShapeCorruption):
            load_model(path)

    def test_inconsistent_depth_rejected(self, tmp_path):
        path = tmp_path / "m.mlp"
        path.write_bytes(b"MLP1\ndepth=3\nsizes=2,2\nlambda=1.0\nalpha=1.0\nend\n")
        with pytest.raises(ShapeCorruption):
            load_model(path)

    @pytest.mark.parametrize(
        "header",
        [
            b"MLP1\ndepth=1\nlambda=1.0\nalpha=1.0\nend\n",  # no sizes=
            b"MLP1\nsizes=2,2\nlambda=1.0\nalpha=1.0\nend\n",  # no depth=
            b"MLP1\ndepth=1\nsizes=2,two\nlambda=1.0\nalpha=1.0\nend\n",
            b"MLP1\ndepth=1\nsizes=-1,-1\nlambda=1.0\nalpha=1.0\nend\n",  # zero parameters expected
            b"MLP1\ndepth=1\nsizes=2,\xe2\x82\xac\nlambda=1.0\nalpha=1.0\nend\n",  # non-ASCII
        ],
        ids=["no-sizes", "no-depth", "non-integer-size", "negative-size", "non-ascii"],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "m.mlp"
        path.write_bytes(header)
        with pytest.raises(ShapeCorruption):
            load_model(path)
