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


def two_branch_selu(z, lam=SELU_LAMBDA, alpha=SELU_ALPHA):
    """SELU as an ``np.where`` over the sign of z, the oracle that the
    branch-free ``selu`` must equal bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    return lam * np.where(z > 0, z, alpha * np.expm1(np.minimum(z, 0.0)))


def two_branch_selu_prime(z, lam=SELU_LAMBDA, alpha=SELU_ALPHA):
    """The slope as an ``np.where``, the oracle for ``selu_prime``."""
    z = np.asarray(z, dtype=np.float64)
    return lam * np.where(z > 0, 1.0, alpha * np.exp(np.minimum(z, 0.0)))


# signed zeros, infinities, nan, subnormals, expm1/exp underflow and overflow
SELU_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, -1e-300, -745.0, -800.0, 709.0, 1e308, -1e308]
SELU_CONSTANTS = pytest.mark.parametrize("lam, alpha", [(SELU_LAMBDA, SELU_ALPHA), (1.1, 1.5)])


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


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

    @SELU_CONSTANTS
    def test_bit_identical_to_two_branch_form(self, lam, alpha):
        z = np.concatenate([SELU_EDGES, 5.0 * np.random.default_rng(2).normal(size=10**6)])
        np.testing.assert_array_equal(bits(selu(z, lam, alpha)), bits(two_branch_selu(z, lam, alpha)))
        np.testing.assert_array_equal(bits(selu_prime(z, lam, alpha)), bits(two_branch_selu_prime(z, lam, alpha)))

    @SELU_CONSTANTS
    def test_scalar_inputs_bit_identical_to_two_branch_form(self, lam, alpha):
        for v in SELU_EDGES + [1.5, -1.5]:
            for z in (v, np.array(v)):  # a Python float and a 0-d array
                for fn, oracle in ((selu, two_branch_selu), (selu_prime, two_branch_selu_prime)):
                    out = fn(z, lam, alpha)
                    assert np.ndim(out) == 0
                    assert bits(out) == bits(oracle(z, lam, alpha)), (fn.__name__, v)

    def test_known_signed_zero_corner_at_small_alpha(self):
        # Bit identity holds for the constants above, not for every alpha:
        # when alpha * expm1(z) underflows to -0 for a subnormal z < 0 (here
        # alpha = 0.25), the two-branch form gives -0 and the branch-free
        # max(z, 0) + -0 gives +0.  The values still compare equal.
        z = -5e-324
        assert selu(z, 1.0, 0.25) == two_branch_selu(z, 1.0, 0.25) == 0.0
        assert np.signbit(two_branch_selu(z, 1.0, 0.25)) and not np.signbit(selu(z, 1.0, 0.25))


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


def float32_copy(model):
    return MLPModel(model.layer_sizes, model.theta.astype(np.float32), model.selu_lambda, model.selu_alpha)


class TestFloat32:
    """A model computes in its ``theta``'s dtype; float32 input to the
    element-wise functions stays float32 and all other input goes to float64."""

    def test_activations_slopes_and_scores_of_a_float32_model_are_float32(self):
        rng = np.random.default_rng(50)
        m = random_model(rng, 6, [5, 4, 3])
        X = rng.normal(size=(9, 6))
        slopes = []
        hs = hidden_activations(float32_copy(m), X, slopes)
        assert [a.dtype for a in hs + slopes] == [np.float32] * 6
        assert forward_batch(float32_copy(m), X).dtype == np.float32
        np.testing.assert_allclose(forward_batch(float32_copy(m), X), forward_batch(m, X), rtol=1e-5)

    @pytest.mark.parametrize("fn", [selu, selu_prime, sigmoid])
    def test_elementwise_dtypes(self, fn):
        z = np.concatenate([[0.0, -0.0], 3.0 * np.random.default_rng(51).normal(size=1000)])
        out = fn(z.astype(np.float32))
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, fn(z.astype(np.float32).astype(np.float64)), rtol=1e-6, atol=1e-7)
        for other in (1.5, np.float16(1.5), np.arange(3), z.astype(np.float16), z):
            assert np.asarray(fn(other)).dtype == np.float64

    def test_depth8_stack_self_normalises_in_float32(self):
        # criterion 4's stack and bounds, run on a float32 copy
        model = float32_copy(init(Architecture.custom([256] * 8), 256, seed=404))
        X = np.random.default_rng(405).normal(size=(10_000, 256))
        for layer, h in enumerate(hidden_activations(model, X), 1):
            assert h.dtype == np.float32
            assert abs(float(h.mean())) <= 0.1, layer
            assert 0.8 <= float(h.var()) <= 1.25, layer


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        rng = np.random.default_rng(11)
        m = random_model(rng, 4, [3])
        m.theta[5] = bad
        path = tmp_path / "m.mlp"
        save_model(m, path)
        with pytest.raises(ShapeCorruption, match="parameter 5 is not finite"):
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
