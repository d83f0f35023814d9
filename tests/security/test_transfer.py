"""Tests for the network/crypto/transfer models (Tables 2-3)."""

import pytest

from repro.security.crypto import (
    AES128_SHA1,
    PIII_866,
    TRIPLE_DES_SHA1,
    CipherSuite,
    HostCpu,
)
from repro.security.network import FAST_ETHERNET, GIGABIT_ETHERNET, NetworkLink
from repro.security.transfer import (
    RCP,
    SCP,
    TransferEndpoint,
    TransferProtocol,
    simulate_transfer,
    transfer_overhead,
)


class TestNetworkLink:
    def test_throughput_below_line_rate(self):
        assert FAST_ETHERNET.throughput_mbs < 100 / 8
        assert FAST_ETHERNET.throughput_mbs == pytest.approx(9.77, rel=0.05)

    def test_gigabit_ten_times_faster(self):
        ratio = GIGABIT_ETHERNET.throughput_mbs / FAST_ETHERNET.throughput_mbs
        assert ratio == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkLink("x", line_rate_mbps=0)
        with pytest.raises(ValueError):
            NetworkLink("x", line_rate_mbps=100, efficiency=1.5)


class TestCipherSuite:
    def test_3des_on_piii_is_cipher_era_slow(self):
        rate = TRIPLE_DES_SHA1.throughput_mbs(PIII_866)
        assert 5.0 < rate < 8.0

    def test_faster_ciphers_rank_correctly(self):
        r3des = TRIPLE_DES_SHA1.throughput_mbs(PIII_866)
        rblow = CipherSuite("blowfish-sha1", cycles_per_byte=45.0).throughput_mbs(PIII_866)
        raes = AES128_SHA1.throughput_mbs(PIII_866)
        assert r3des < rblow < raes

    def test_throughput_scales_with_clock(self):
        fast_cpu = HostCpu("modern", clock_mhz=3000.0)
        assert TRIPLE_DES_SHA1.throughput_mbs(fast_cpu) > TRIPLE_DES_SHA1.throughput_mbs(PIII_866)

    def test_validation(self):
        with pytest.raises(ValueError):
            CipherSuite("bad", cycles_per_byte=0)
        with pytest.raises(ValueError):
            HostCpu("bad", clock_mhz=-1)


class TestSimulateTransfer:
    def test_scp_always_slower_than_rcp(self):
        for link in (FAST_ETHERNET, GIGABIT_ETHERNET):
            for size in (1, 10, 100, 1000):
                assert simulate_transfer(size, SCP, link) > simulate_transfer(size, RCP, link)

    def test_zero_size_is_handshake_only(self):
        t = simulate_transfer(0, SCP, FAST_ETHERNET)
        assert t == pytest.approx(SCP.handshake_s + FAST_ETHERNET.latency_s)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            simulate_transfer(-1, RCP, FAST_ETHERNET)

    def test_rcp_network_bound_on_fast_ethernet(self):
        t100 = simulate_transfer(100, RCP, FAST_ETHERNET)
        t1000 = simulate_transfer(1000, RCP, FAST_ETHERNET)
        rate = 900 / (t1000 - t100)
        assert rate == pytest.approx(FAST_ETHERNET.throughput_mbs, rel=1e-6)

    def test_rcp_disk_bound_on_gigabit(self):
        t100 = simulate_transfer(100, RCP, GIGABIT_ETHERNET)
        t1000 = simulate_transfer(1000, RCP, GIGABIT_ETHERNET)
        rate = 900 / (t1000 - t100)
        assert rate == pytest.approx(TransferEndpoint().disk_mbs, rel=1e-6)

    def test_scp_cipher_bound_on_both_links(self):
        """The cipher bottleneck makes scp equally slow on both networks."""
        t_fast = simulate_transfer(1000, SCP, FAST_ETHERNET)
        t_giga = simulate_transfer(1000, SCP, GIGABIT_ETHERNET)
        assert t_fast == pytest.approx(t_giga, rel=0.01)

    def test_fast_cipher_removes_bottleneck(self):
        modern = TransferProtocol("scp-aes", handshake_s=0.5, cipher=AES128_SHA1)
        t = simulate_transfer(1000, modern, GIGABIT_ETHERNET)
        assert t < simulate_transfer(1000, SCP, GIGABIT_ETHERNET)


class TestPaperShape:
    """The qualitative claims of Tables 2-3."""

    def test_table2_large_file_overhead_near_37_percent(self):
        ovh = transfer_overhead(1000, FAST_ETHERNET)
        assert 0.30 <= ovh <= 0.42

    def test_table3_large_file_overhead_near_67_percent(self):
        ovh = transfer_overhead(1000, GIGABIT_ETHERNET)
        assert 0.60 <= ovh <= 0.78

    def test_small_files_dominated_by_handshake(self):
        assert transfer_overhead(1, FAST_ETHERNET) > 0.6

    def test_overhead_grows_with_network_speed(self):
        """Security negates the benefit of the faster network."""
        for size in (100, 500, 1000):
            assert transfer_overhead(size, GIGABIT_ETHERNET) > transfer_overhead(
                size, FAST_ETHERNET
            )

    def test_overhead_definition_matches_paper(self):
        """Overhead = 1 - rcp/scp (the paper's column formula)."""
        r = simulate_transfer(500, RCP, FAST_ETHERNET)
        s = simulate_transfer(500, SCP, FAST_ETHERNET)
        assert transfer_overhead(500, FAST_ETHERNET) == pytest.approx(1 - r / s)
