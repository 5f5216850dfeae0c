"""Tests for the trace substrate: generators, calibration, attacks, I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traces import (
    BENCHMARKS,
    DistributionTrace,
    RequestStream,
    benchmark_names,
    benchmark_trace,
    birthday_paradox_attack,
    counts_cov,
    distribution_cov,
    hammer_attack,
    hotspot_distribution,
    lognormal_distribution,
    read_trace_file,
    sequential_sweep,
    write_cov,
    write_trace_file,
    zipf_distribution,
    zipf_request_stream,
)
from repro.traces.synthetic import mixture_cov, solve_hot_fraction


class TestCovMath:
    def test_mixture_cov_closed_form(self):
        # cov = (q - h) / sqrt(h (1 - h))
        assert mixture_cov(0.1, 0.9) == pytest.approx(0.8 / np.sqrt(0.09))

    @given(cov=st.floats(min_value=0.5, max_value=20.0),
           q=st.floats(min_value=0.5, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_solver_inverts_formula(self, cov, q):
        try:
            h = solve_hot_fraction(cov, hot_share=q)
        except ConfigurationError:
            return  # unreachable target for this q: legitimate
        assert mixture_cov(h, q) == pytest.approx(cov, rel=1e-6)

    def test_counts_cov(self):
        assert counts_cov(np.array([1, 1, 1, 1])) == 0.0
        assert counts_cov(np.array([0, 0, 0, 4])) == pytest.approx(np.sqrt(3))

    def test_write_cov_from_stream(self):
        addresses = np.array([0, 0, 0, 1])
        assert write_cov(addresses, 4) > 1.0


class TestGenerators:
    @pytest.mark.parametrize("target", [2.0, 5.0, 12.0])
    def test_hotspot_hits_target_cov(self, target):
        trace = hotspot_distribution(4096, target, seed=1)
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("target", [2.0, 5.0, 12.0, 30.0])
    def test_lognormal_hits_target_cov(self, target):
        trace = lognormal_distribution(4096, target, seed=1)
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(target, rel=1e-3)

    def test_lognormal_impossible_cov_rejected(self):
        with pytest.raises(ConfigurationError):
            lognormal_distribution(16, 10.0, seed=1)

    def test_clustered_hot_set_is_contiguous(self):
        trace = hotspot_distribution(1024, 8.0, clustered=True, seed=2)
        hot = np.nonzero(trace.probabilities
                         > 1.5 / 1024)[0]
        # Contiguous modulo wraparound: the sorted gaps have at most one
        # jump greater than 1.
        gaps = np.diff(np.sort(hot))
        assert (gaps > 1).sum() <= 1

    def test_zipf_cov_calibration(self):
        trace = zipf_distribution(2048, target_cov=6.0, seed=3)
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(6.0, rel=1e-3)

    def test_probabilities_normalized(self):
        for trace in (hotspot_distribution(512, 4.0, seed=1),
                      lognormal_distribution(512, 4.0, seed=1),
                      zipf_distribution(512, 1.0, seed=1)):
            assert trace.probabilities.sum() == pytest.approx(1.0)


class TestDistributionTrace:
    def test_next_write_in_range(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        for _ in range(100):
            assert 0 <= trace.next_write() < 256

    def test_batch_counts_sum(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        counts = trace.batch_counts(10_000)
        assert counts.sum() == 10_000

    def test_reset_reproduces_stream(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        first = [trace.next_write() for _ in range(50)]
        trace.reset()
        second = [trace.next_write() for _ in range(50)]
        assert first == second

    def test_restricted_to_folds_mass(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        folded = trace.restricted_to(100)
        assert folded.virtual_blocks == 100
        assert folded.probabilities.sum() == pytest.approx(1.0)

    def test_restricted_to_noop_when_fits(self):
        trace = hotspot_distribution(256, 4.0, seed=1)
        assert trace.restricted_to(256) is trace

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            DistributionTrace(np.array([0.5, -0.5]))
        with pytest.raises(ConfigurationError):
            DistributionTrace(np.zeros(4))


class TestRequestStream:
    def test_addresses_and_flags_in_range(self):
        stream = zipf_request_stream(256, write_ratio=0.3, seed=5)
        for _ in range(200):
            address, is_write = stream.next_request()
            assert 0 <= address < 256
            assert isinstance(is_write, bool)

    def test_reset_reproduces_the_stream(self):
        stream = zipf_request_stream(256, write_ratio=0.5, seed=5)
        first = [stream.next_request() for _ in range(100)]
        stream.reset()
        second = [stream.next_request() for _ in range(100)]
        assert first == second

    def test_same_seed_same_stream(self):
        draws = []
        for _ in range(2):
            stream = zipf_request_stream(128, write_ratio=0.5, seed=9)
            draws.append([stream.next_request() for _ in range(64)])
        assert draws[0] == draws[1]

    def test_write_ratio_extremes(self):
        all_writes = zipf_request_stream(64, write_ratio=1.0, seed=1)
        assert all(all_writes.next_request()[1] for _ in range(50))
        no_writes = zipf_request_stream(64, write_ratio=0.0, seed=1)
        assert not any(no_writes.next_request()[1] for _ in range(50))

    def test_write_ratio_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_request_stream(64, write_ratio=-0.1, seed=1)
        with pytest.raises(ConfigurationError):
            zipf_request_stream(64, write_ratio=1.5, seed=1)

    def test_from_any_distribution_trace(self):
        stream = hotspot_distribution(256, 4.0, seed=2).request_stream()
        assert isinstance(stream, RequestStream)
        address, _ = stream.next_request()
        assert 0 <= address < 256

    def test_skew_shows_in_address_concentration(self):
        # Zipf ranks are spread over a seeded permutation, so skew shows
        # up as concentration on few addresses, not as low-address mass.
        from collections import Counter
        stream = zipf_request_stream(1024, exponent=1.2, seed=4)
        addresses = [stream.next_request()[0] for _ in range(2000)]
        top = Counter(addresses).most_common(1)[0][1]
        assert top > (2000 / 1024) * 10  # far above the uniform share


def reference_requests(probabilities, write_ratio, seed, name, count):
    """The stream's defining draw loop: whole 4096-request blocks of
    ``choice(p=...)`` addresses followed by ``random`` write flags."""
    from repro.rng import derive_rng
    rng = derive_rng(seed, f"requests-{name}")
    requests = []
    while len(requests) < count:
        addresses = rng.choice(len(probabilities), size=RequestStream.BLOCK,
                               p=probabilities)
        writes = rng.random(RequestStream.BLOCK) < write_ratio
        requests.extend(zip(addresses.tolist(), writes.tolist()))
    return requests[:count]


class TestLazyRequestStream:
    """Chunked lazy draws reproduce the block-buffered stream exactly."""

    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(1, 3 * RequestStream.BLOCK + 200),
           write_ratio=st.sampled_from([0.0, 0.5, 1.0]),
           first=st.sampled_from([1, 3, 8, 64]),
           largest=st.sampled_from([7, 64, 1000, RequestStream.BLOCK]),
           blocks=st.integers(2, 300), seed=st.integers(0, 2**31))
    def test_chunked_stream_equals_reference_loop(self, count, write_ratio,
                                                  first, largest, blocks,
                                                  seed):
        weights = np.random.default_rng(seed).random(blocks)
        weights[::5] = 0.0  # zero-mass addresses are never drawn
        weights[1] = 1.0
        stream = RequestStream(weights, write_ratio=write_ratio,
                               name="lazy", seed=seed)
        stream.FIRST_CHUNK, stream.MAX_CHUNK = first, max(first, largest)
        stream.reset()
        expected = reference_requests(stream.probabilities, write_ratio,
                                      seed, "lazy", count)
        assert [stream.next_request() for _ in range(count)] == expected
        stream.reset()
        assert [stream.next_request() for _ in range(count)] == expected

    def test_crosses_two_block_boundaries(self):
        count = 2 * RequestStream.BLOCK + 37
        stream = zipf_request_stream(512, write_ratio=0.5, seed=3,
                                     stream_name="boundary")
        expected = reference_requests(stream.probabilities, 0.5, 3,
                                      "boundary", count)
        assert [stream.next_request() for _ in range(count)] == expected

    def test_sibling_is_the_named_stream_over_the_same_law(self):
        first = zipf_request_stream(256, write_ratio=0.3, seed=5,
                                    stream_name="client-0")
        sibling = first.sibling("client-1")
        fresh = zipf_request_stream(256, write_ratio=0.3, seed=5,
                                    stream_name="client-1")
        assert sibling.probabilities is first.probabilities
        assert ([sibling.next_request() for _ in range(300)]
                == [fresh.next_request() for _ in range(300)])
        assert first.name == "client-0"


class TestBenchmarks:
    def test_table1_rows_present(self):
        assert benchmark_names() == [
            "blackscholes", "streamcluster", "swaptions", "mg",
            "fft", "ocean", "radix", "water-spatial"]
        assert BENCHMARKS["mg"].write_cov == 40.87
        assert BENCHMARKS["ocean"].suite == "SPLASH-2"

    @pytest.mark.parametrize("name", ["ocean", "fft", "blackscholes"])
    def test_benchmark_trace_calibrated(self, name):
        trace = benchmark_trace(name, 4096, seed=1)
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(BENCHMARKS[name].write_cov, rel=0.02)

    def test_mg_clamped_at_small_spaces(self):
        trace = benchmark_trace("mg", 256, seed=1)
        cov = distribution_cov(trace.probabilities)
        assert cov <= 0.8 * np.sqrt(255) + 1e-6

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            benchmark_trace("doom", 256)

    def test_lognormal_family_available(self):
        trace = benchmark_trace("ocean", 4096, seed=1, family="lognormal")
        assert distribution_cov(trace.probabilities) == \
            pytest.approx(4.15, rel=1e-3)


class TestAttacks:
    def test_hammer_concentrates_all_mass(self):
        trace = hammer_attack(1024, targets=4, seed=1)
        assert (trace.probabilities > 0).sum() == 4

    def test_birthday_has_background(self):
        trace = birthday_paradox_attack(1024, set_size=16, seed=1)
        assert (trace.probabilities > 0).all()
        assert distribution_cov(trace.probabilities) > 5.0

    def test_sequential_sweep_deterministic(self):
        trace = sequential_sweep(8, stride=3)
        assert [trace.next_write() for _ in range(5)] == [0, 3, 6, 1, 4]

    def test_sequential_batch_counts_uniform(self):
        trace = sequential_sweep(8)
        counts = trace.batch_counts(16)
        assert (counts == 2).all()


class TestFileIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.rptr"
        addresses = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        write_trace_file(path, addresses, virtual_blocks=16)
        trace = read_trace_file(path)
        assert trace.virtual_blocks == 16
        assert [trace.next_write() for _ in range(8)] == addresses.tolist()

    def test_wraps_around(self, tmp_path):
        path = tmp_path / "trace.rptr"
        write_trace_file(path, np.array([1, 2]), virtual_blocks=4)
        trace = read_trace_file(path)
        assert [trace.next_write() for _ in range(5)] == [1, 2, 1, 2, 1]

    def test_batch_counts_match_stream(self, tmp_path):
        path = tmp_path / "trace.rptr"
        write_trace_file(path, np.array([0, 0, 1, 3]), virtual_blocks=4)
        trace = read_trace_file(path)
        counts = trace.batch_counts(8)
        assert counts.tolist() == [4, 2, 0, 2]

    def test_rejects_out_of_range_addresses(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_trace_file(tmp_path / "t", np.array([99]), virtual_blocks=4)

    def test_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ConfigurationError):
            read_trace_file(path)
