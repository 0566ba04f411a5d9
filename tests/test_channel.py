import numpy as np
import pytest

from bdris.channel import (NetworkScenario, PowerConfig,
                           effective_from_rows, path_gain, sample_channels,
                           stream_rng, zf_precoder)
from bdris.errors import DegenerateChannelError
from reference_model import uniform_power


def two_bs_scenario(m=6):
    return NetworkScenario(
        bs_positions=((0.0, 0.0), (80.0, 0.0)),
        user_positions=(((25.0, 10.0), (35.0, 0.0)), ((70.0, 10.0), (55.0, 0.0))),
        ris_position=(40.0, 20.0),
        m=m,
        eta_direct=3.5,
        eta_reflected=2.5,
    )


class TestScenario:
    def test_distances(self):
        sc = two_bs_scenario()
        assert sc.bs_ris_distance(0) == pytest.approx(np.hypot(40, 20))
        assert sc.ris_user_distance(0, 0) == pytest.approx(np.hypot(15, 10))
        assert sc.bs_user_distance(1, 1) == pytest.approx(np.hypot(25, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkScenario(bs_positions=((0, 0),), user_positions=(((1, 1),),),
                            ris_position=(0, 1), m=2, eta_direct=-1.0, eta_reflected=2.5)


class TestPowerConfig:
    def test_uniform(self):
        power = uniform_power(two_bs_scenario(), p=0.1, noise=1e-7)
        assert power.alpha == ((0.5, 0.5), (0.5, 0.5))
        assert (power.p, power.noise) == (0.1, 1e-7)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            PowerConfig(p=0.1, alpha=((0.8, 0.7),), noise=1e-7)
        with pytest.raises(ValueError):
            PowerConfig(p=0.1, alpha=((-0.1, 0.5),), noise=1e-7)


class TestPathGain:
    def test_unit_distance(self):
        assert path_gain(1.0, 3.5) == 1.0

    def test_power_law(self):
        assert path_gain(10.0, 2.5) == pytest.approx(10 ** -2.5)

    def test_bs_ris_geometry(self):
        d = np.hypot(40.0, 20.0)
        assert path_gain(d, 2.5) == pytest.approx(d ** -2.5)

    def test_monotone_in_distance(self):
        assert path_gain(30.0, 2.5) > path_gain(31.0, 2.5)

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            path_gain(0.0, 2.5)

    def test_overflowing_gain_rejected_vanishing_gain_zero(self):
        with pytest.raises(ValueError, match="overflows"):
            path_gain(1e-200, 2.5)
        assert path_gain(1e200, 2.5) == 0.0


class TestSampleChannels:
    def test_shapes(self):
        sc = two_bs_scenario()
        ch = sample_channels(sc, d=5, rng=stream_rng(1, 0), direct=False)
        assert ch.g[0].shape == (5, 6)
        assert ch.f[1][0].shape == (5,)
        assert ch.h[0][1].shape == (6,)

    def test_blocked_direct_links_exactly_zero(self):
        ch = sample_channels(two_bs_scenario(), 4, stream_rng(1, 0), direct=False)
        for h_b in ch.h:
            for h in h_b:
                assert np.all(h == 0)

    def test_available_direct_links_nonzero(self):
        ch = sample_channels(two_bs_scenario(), 4, stream_rng(1, 0), direct=True)
        assert all(np.any(h != 0) for h_b in ch.h for h in h_b)

    def test_determinism(self):
        sc = two_bs_scenario()
        a = sample_channels(sc, 4, stream_rng(9, 3), direct=True)
        b = sample_channels(sc, 4, stream_rng(9, 3), direct=True)
        assert np.array_equal(a.g[0], b.g[0])
        assert np.array_equal(a.f[1][1], b.f[1][1])
        assert np.array_equal(a.h[0][0], b.h[0][0])
        c = sample_channels(sc, 4, stream_rng(9, 4), direct=True)
        assert not np.array_equal(a.g[0], c.g[0])

    def test_blocked_and_available_share_reflected_draws(self):
        # one scenario, one stream: the flag adds the direct vectors after the
        # reflected links, so every g and f is bitwise the same in both modes
        sc = two_bs_scenario()
        blocked = sample_channels(sc, 4, stream_rng(5, 2), direct=False)
        avail = sample_channels(sc, 4, stream_rng(5, 2), direct=True)
        for b in range(sc.num_bs):
            assert np.array_equal(blocked.g[b], avail.g[b])
            assert all(np.array_equal(x, y) for x, y in zip(blocked.f[b], avail.f[b]))

    def test_empirical_variance_matches_path_gain(self):
        sc = NetworkScenario(bs_positions=((0.0, 0.0),), user_positions=(((25.0, 10.0),),),
                             ris_position=(40.0, 20.0), m=50, eta_direct=3.5,
                             eta_reflected=2.5)
        gain = path_gain(sc.bs_ris_distance(0), 2.5)
        entries = []
        for t in range(50):
            ch = sample_channels(sc, 50, stream_rng(3, t), direct=False)
            entries.append(np.abs(ch.g[0]) ** 2)
        variance = float(np.mean(entries))  # 125000 draws
        assert abs(variance - gain) < 0.02 * gain


def effective(ch, b, theta):
    """The shipped ``effective_from_rows`` of the reflected user rows F_b^H Theta."""
    return effective_from_rows(ch, b, np.conj(ch.f[b]) @ theta)


class TestEffectiveChannels:
    def test_zero_reflection_blocked(self):
        ch = sample_channels(two_bs_scenario(), 4, stream_rng(1, 0), direct=False)
        eff = effective(ch, 0, np.zeros((4, 4)))
        assert np.all(eff == 0)

    def test_zero_reflection_available_gives_direct(self):
        ch = sample_channels(two_bs_scenario(), 4, stream_rng(1, 0), direct=True)
        eff = effective(ch, 1, np.zeros((4, 4)))
        assert np.allclose(eff[0], ch.h[1][0].conj())

    def test_matches_naive_triple_product(self):
        rng = np.random.default_rng(2)
        ch = sample_channels(two_bs_scenario(), 4, stream_rng(1, 1), direct=True)
        theta = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        eff = effective(ch, 0, theta)
        for k in range(2):
            naive = np.array([
                sum(ch.f[0][k][i].conj() * theta[i, j] * ch.g[0][j, m_]
                    for i in range(4) for j in range(4)) + ch.h[0][k][m_].conj()
                for m_ in range(6)
            ])
            assert np.abs(eff[k] - naive).max() < 1e-12

    def test_bilinearity_in_theta(self):
        ch = sample_channels(two_bs_scenario(), 4, stream_rng(1, 2), direct=False)
        rng = np.random.default_rng(3)
        t1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = effective(ch, 0, t1 + t2)
        rhs = (effective(ch, 0, t1) + effective(ch, 0, t2)
               - effective(ch, 0, np.zeros((4, 4))))
        assert np.abs(lhs - rhs).max() < 1e-12


class TestZfPrecoder:
    def test_single_user_matched_filter(self):
        rng = np.random.default_rng(4)
        e = rng.standard_normal((1, 6)) + 1j * rng.standard_normal((1, 6))
        p = zf_precoder(e)
        assert p.shape == (6, 1)
        assert np.linalg.norm(p[:, 0]) == pytest.approx(1.0)
        gain = abs(e[0] @ p[:, 0])
        assert gain == pytest.approx(np.linalg.norm(e))

    def test_orthogonal_channels(self):
        e = np.zeros((2, 4), dtype=complex)
        e[0, 0] = 2.0
        e[1, 1] = 3.0j
        p = zf_precoder(e)
        cross = e @ p
        assert abs(cross[0, 1]) < 1e-14 and abs(cross[1, 0]) < 1e-14
        assert np.allclose(np.abs(p[:, 0]), [1, 0, 0, 0])

    def test_leakage_small(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            e = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
            p = zf_precoder(e)
            assert abs(e[0] @ p[:, 1]) / np.linalg.norm(e[0]) < 1e-10
            assert abs(e[1] @ p[:, 0]) / np.linalg.norm(e[1]) < 1e-10
            assert np.allclose(np.linalg.norm(p, axis=0), 1.0, atol=1e-10)

    def test_rank_deficient_rejected(self):
        e = np.ones((2, 5), dtype=complex)
        with pytest.raises(DegenerateChannelError):
            zf_precoder(e)

    def test_more_users_than_antennas_rejected(self):
        with pytest.raises(ValueError):
            zf_precoder(np.ones((3, 2), dtype=complex))
