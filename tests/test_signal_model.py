"""Tests for the generative signal model and its validation rules."""
import hashlib
import io
import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from syncphase.errors import (
    EmptyInput,
    NonPositiveAmplitude,
    NonSynchronous,
    NyquistViolation,
    OutOfRange,
)
from syncphase.signal_model import (
    RecordUnits,
    generate,
    make_params,
    noisy_records,
    read_samples_csv,
    sigma_x_for_snr,
    snr_linear,
    tone_phases,
)
from syncphase import rng, signal_model
from syncphase.cli import main


def quarter_period():
    return make_params(amplitude=1.0, f0=1.0, fs=4.0, n_samples=4)


class TestMakeParams:
    def test_quarter_period_grid(self):
        p = quarter_period()
        assert p.bin_index == 1

    def test_non_synchronous_rejected(self):
        # 7 * 3 / 10 = 21/10 is not an integer
        with pytest.raises(NonSynchronous):
            make_params(amplitude=1.0, f0=3.0, fs=10.0, n_samples=7)

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            make_params(amplitude=1.0, f0=5.0, fs=9.0, n_samples=18)

    def test_nyquist_boundary_is_rejected(self):
        # fs exactly equal to 2*f0 must also fail (strict inequality)
        with pytest.raises(NyquistViolation):
            make_params(amplitude=1.0, f0=5.0, fs=10.0, n_samples=4)

    def test_decimal_literals_are_synchronous(self):
        # 0.1 and 1.0 are exact as decimals even though 0.1 is not an exact
        # binary float; N * f0 / fs = 10 * 0.1 / 1.0 must reduce to k = 1.
        p = make_params(amplitude=1.0, f0=0.1, fs=1.0, n_samples=10)
        assert p.bin_index == 1

    def test_bin_must_be_at_least_one(self):
        # N * f0 / fs = 0.4 for N=4 would give k < 1
        with pytest.raises(NonSynchronous):
            make_params(amplitude=1.0, f0=1.0, fs=10.0, n_samples=4)

    def test_amplitude_must_be_positive(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(NonPositiveAmplitude):
                make_params(amplitude=bad, f0=1.0, fs=4.0, n_samples=4)

    def test_sigma_and_n_validation(self):
        with pytest.raises(OutOfRange):
            make_params(amplitude=1.0, f0=1.0, fs=4.0, n_samples=0)
        with pytest.raises(OutOfRange):
            make_params(amplitude=1.0, f0=1.0, fs=4.0, n_samples=4,
                        sigma_additive=-0.1)
        with pytest.raises(OutOfRange):
            make_params(amplitude=1.0, f0=1.0, fs=4.0, n_samples=4,
                        sigma_phase=-0.5)

    def test_fractions_are_exact_frequencies(self):
        p = make_params(amplitude=1.0, f0=Fraction(1, 10), fs=Fraction(1),
                        n_samples=10)
        assert (p.f0, p.fs, p.bin_index) == (0.1, 1.0, 1)

    @pytest.mark.parametrize("f0, fs, message", [
        (math.inf, 4.0, "f0 must be finite"),
        (1.0, math.nan, "fs must be finite"),
        ("one", 4.0, "f0 is not a number"),
        (1.0, "1/0", "fs is not a number"),
        ([1.0], 4.0, "f0 has unsupported type list"),
        (0.0, 4.0, "f0 must be > 0"),
        (-1.0, 4.0, "f0 must be > 0"),
        (1.0, 0, "fs must be > 0"),
        (1.0, "-4", "fs must be > 0"),
    ])
    def test_frequency_validation(self, f0, fs, message):
        with pytest.raises(OutOfRange, match=message):
            make_params(amplitude=1.0, f0=f0, fs=fs, n_samples=4)

    def test_a_table_parses_its_frequencies_once(self):
        signal_model._decimal.cache_clear()
        for n in (10, 20, 30):
            make_params(amplitude=1.0, f0="0.1", fs="1.0", n_samples=n)
        assert signal_model._decimal.cache_info().misses == 2
        # the message keeps the caller's spelling on every call
        for _ in range(2):
            with pytest.raises(NyquistViolation, match=r"fs=' 4e0 ' <= 2\*f0="
                                                       r"'2\.0'\*2"):
                make_params(amplitude=1.0, f0="2.0", fs=" 4e0 ", n_samples=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, bad):
        with pytest.raises(OutOfRange, match="phase"):
            make_params(amplitude=1.0, f0=1.0, fs=4.0, n_samples=4,
                        phase=bad)

    def test_phase_normalized_to_principal_interval(self):
        p = make_params(amplitude=1.0, f0=1.0, fs=4.0, n_samples=4,
                        phase=-math.pi / 2.0)
        assert 0.0 <= p.phase < 2.0 * math.pi
        assert p.phase == pytest.approx(1.5 * math.pi)


class TestToneAndGenerate:
    def test_noiseless_quarter_period_samples(self):
        p = quarter_period()
        r = generate(p, seed=0)
        assert np.allclose(r, [1.0, 0.0, -1.0, 0.0], atol=1e-15)

    def test_tone_phase_reduction_matches_direct_formula(self):
        # the stored phases are reduced mod 2*pi, so compare on the circle
        p = make_params(amplitude=2.0, f0=3.0, fs=15.0, phase=0.7,
                        n_samples=45)
        direct = 2.0 * math.pi * p.bin_index * np.arange(45) / 45 + 0.7
        assert np.allclose(np.exp(1j * tone_phases(p)), np.exp(1j * direct),
                           rtol=0.0, atol=1e-12)

    def test_generation_is_reproducible(self):
        p = make_params(amplitude=1.0, f0=1.0, fs=10.0, phase=0.3,
                        sigma_additive=0.5, sigma_phase=0.02, n_samples=50)
        a = generate(p, seed=123, draw_index=7)
        b = generate(p, seed=123, draw_index=7)
        assert np.array_equal(a, b)
        c = generate(p, seed=123, draw_index=8)
        assert not np.array_equal(a, c)

    def test_noise_channels_are_independent_streams(self):
        # silencing one channel must not change what the other one draws
        base = dict(amplitude=1.0, f0=1.0, fs=10.0, n_samples=40)
        p = make_params(sigma_additive=1.0, sigma_phase=0.1, **base)
        both = generate(p, seed=5)
        phase_only = generate(make_params(sigma_phase=0.1, **base), seed=5)
        additive = both - np.cos(
            tone_phases(p)
            + 0.1 * rng.standard_normals_block(5, 0, 1, rng.CH_PHASE, 40)[0])
        assert np.allclose(phase_only + additive, both, atol=1e-12)

    def test_overflowing_record_rejected(self):
        # A = 1e308 at 0 dB: the noise pushes 2 of 20 samples past the
        # largest float
        p = make_params(amplitude=1e308, f0=1.0, fs=10.0,
                        sigma_additive=sigma_x_for_snr(1e308, 1.0),
                        n_samples=20)
        with pytest.raises(OutOfRange, match="overflowed"):
            generate(p, seed=0)

    def test_samples_are_read_only(self):
        r = generate(quarter_period(), seed=1)
        with pytest.raises((ValueError, RuntimeError)):
            r[0] = 5.0

    def test_additive_noise_variance(self):
        p = make_params(amplitude=1.0, f0=1.0, fs=10.0, sigma_additive=1.0,
                        n_samples=10**6)
        r = generate(p, seed=3)
        noise = r - np.cos(tone_phases(p))
        assert 0.997 <= float(np.var(noise)) <= 1.003

    def test_phase_noise_sample_variance_matches_closed_form(self):
        # Var(cos(t + p)) with p ~ N(0, sp^2) at a fixed tone phase t:
        # (1 + exp(-2 sp^2) cos 2t) / 2 - exp(-sp^2) cos^2 t
        sp = 0.1
        p = make_params(amplitude=1.0, f0=1.0, fs=10.0, sigma_phase=sp,
                        n_samples=20)
        t = float(tone_phases(p)[3])
        z = rng.standard_normals_block(99, 0, 1, rng.CH_PHASE, 10**6)[0]
        sample = np.cos(t + sp * z)
        expected = (1.0 + math.exp(-2 * sp**2) * math.cos(2 * t)) / 2.0 \
            - math.exp(-sp**2) * math.cos(t) ** 2
        assert float(np.var(sample)) == pytest.approx(expected, rel=0.01)


class TestRecordUnits:
    @staticmethod
    def params(sigma_x, sigma_p, n=20):
        return make_params(amplitude=1.5, f0=3, fs=n, phase=0.4,
                           sigma_additive=sigma_x, sigma_phase=sigma_p,
                           n_samples=n)

    def test_negative_draw_count_rejected(self):
        with pytest.raises(OutOfRange, match="n_draws"):
            noisy_records(self.params(0.3, 0.1), 1, 0, -1)

    def test_units_are_row_blocks_of_each_noisy_channel(self, monkeypatch):
        monkeypatch.setattr(rng, "_SUB_BLOCK", 64)  # 12 draws at N = 20
        assert rng.unit_rows(20) == 12
        ph, add = rng.CH_PHASE, rng.CH_ADDITIVE
        assert RecordUnits(self.params(0.3, 0.1), 1, 0, 30).units == [
            (ph, 0, 12), (add, 0, 12), (ph, 12, 24), (add, 12, 24),
            (ph, 24, 30), (add, 24, 30)]
        assert RecordUnits(self.params(0.0, 0.1), 1, 0, 13).units == [
            (ph, 0, 12), (ph, 12, 13)]
        assert RecordUnits(self.params(0.3, 0.0), 1, 0, 12).units == [
            (add, 0, 12)]
        assert RecordUnits(self.params(0.0, 0.0), 1, 0, 12).units == []

    def test_unit_rows_hold_one_kernel_sub_block(self):
        assert rng.unit_rows(20) == rng._SUB_BLOCK // 5
        assert rng.unit_rows(1000) == rng._SUB_BLOCK // 250
        assert rng.unit_rows(10**6) == 1

    @pytest.mark.parametrize("sigma_x, sigma_p", [
        (0.3, 0.1), (0.0, 0.1), (0.3, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("n", [20, 101])
    def test_two_stages_in_any_order_give_the_one_call_bits(
            self, monkeypatch, sigma_x, sigma_p, n):
        monkeypatch.setattr(rng, "_SUB_BLOCK", 64)
        p = self.params(sigma_x, sigma_p, n)
        first = 2**64 - 7  # the draw word wraps inside the batch
        want = noisy_records(p, 9, first, 30)
        staged = RecordUnits(p, 9, first, 30)
        for unit in staged.units:  # every fill in order, on one thread
            staged.fill(unit)
        for unit in reversed(staged.units):
            staged.transform(unit)
        assert staged.records().tobytes() == want.tobytes()
        for j in (0, 7, 29):
            assert want[j].tobytes() == generate(p, 9, first + j).tobytes()

    @staticmethod
    def reference(p, seed, first, n_draws):
        """A*cos(sigma_p*z_p + tone phase) + sigma_x*z_x from whole-batch
        normals, the tone alone for a zero sigma_p."""
        def normals(channel):
            return rng.standard_normals_block(seed, first, n_draws, channel,
                                              p.n_samples)
        base = np.broadcast_to(tone_phases(p), (n_draws, p.n_samples))
        z_p = normals(rng.CH_PHASE) if p.sigma_phase > 0.0 else 0.0
        records = p.amplitude * np.cos(p.sigma_phase * z_p + base)
        if p.sigma_additive > 0.0:
            records = records + p.sigma_additive * normals(rng.CH_ADDITIVE)
        return records

    @pytest.mark.parametrize("sigma_x, sigma_p", [
        (0.3, 0.1), (0.0, 0.1), (0.3, 0.0), (0.0, 0.0)])
    @pytest.mark.parametrize("first", [rng.CH_PHASE, rng.CH_ADDITIVE])
    def test_either_channel_may_finish_a_row_block_first(
            self, monkeypatch, sigma_x, sigma_p, first):
        # whichever unit of a row block finishes second adds the buffered
        # channel into the rows: phase + additive has the same bits either
        # way, the last unit drawn in one call as build draws it
        monkeypatch.setattr(rng, "_SUB_BLOCK", 64)
        p = self.params(sigma_x, sigma_p)
        staged = RecordUnits(p, 9, 5, 30)
        units = staged.units
        for unit in units[:-1]:
            staged.fill(unit)
        for unit in sorted(units, key=lambda u: (u[1], u[0] != first)):
            if unit == units[-1]:
                staged.draw(unit)
            else:
                staged.transform(unit)
        got = staged.records()
        assert got.tobytes() == noisy_records(p, 9, 5, 30).tobytes()
        assert got.tobytes() == self.reference(p, 9, 5, 30).tobytes()

    def test_two_units_finishing_at_once_add_once(self):
        # which unit of a row block finishes second is one check-then-act
        # under the lock: slowed down here, the block's two units finishing
        # together on two threads still leave exactly one of them to add
        class SlowDone(dict):
            def __contains__(self, key):
                found = super().__contains__(key)
                time.sleep(0.05)
                return found

        p = self.params(0.3, 0.1)
        staged = RecordUnits(p, 9, 5, 30)
        phase, additive = staged.units  # one row block
        staged.fill(phase)
        staged._done = SlowDone()
        threads = [threading.Thread(target=staged.transform, args=(phase,)),
                   threading.Thread(target=staged.draw, args=(additive,))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        want = noisy_records(p, 9, 5, 30)
        assert staged.records().tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_draws", [500, 2000])
    def test_a_batch_holds_its_records_and_a_few_unit_buffers(
            self, n_draws):
        # two channels at N = 1000: the phase units are drawn in the
        # records rows, the additive ones in at most _UNITS_IN_FLIGHT unit
        # buffers (one more while the worker holds the last queued unit)
        # and the last in a block of its own, whatever the draw count
        p = self.params(0.3, 0.1, n=1000)
        tracemalloc.start()
        try:
            records = noisy_records(p, 9, 5, n_draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit_bytes = rng.unit_rows(1000) * 1000 * records.itemsize
        held = (signal_model._UNITS_IN_FLIGHT + 2) * unit_bytes
        assert records.nbytes < peak <= records.nbytes + held + 2**16

    # sha256 of noisy_records(params(0.3, 0.1), 9, 5, n_draws), recorded
    # while every noisy channel still got a filler of its own
    RECORD_SHA256 = {
        1: "526ae279c90c927fa15cdf44af98be7bf0f28e4a5963d7d467fb7cfebbd06607",
        2000: "ae60ecdefaf55d8119051b8bc48b9f7a9032a0669ff8aa811f4e266f7c64ffdd",
    }

    @pytest.mark.parametrize("n_draws, sub_block, want", [
        # one row block: build fills the phase unit and draws the additive
        # one, whose filler rng.standard_normals_block builds
        (1, None, [(rng.CH_PHASE, 1), (rng.CH_ADDITIVE, 1)]),
        (2000, None, [(rng.CH_PHASE, 1), (rng.CH_ADDITIVE, 1)]),
        # three row blocks of 12, 12 and 6 draws
        (30, 64, [(rng.CH_PHASE, 3), (rng.CH_ADDITIVE, 1),
                  (rng.CH_ADDITIVE, 2)]),
    ])
    def test_every_filler_built_makes_a_fill(self, monkeypatch, n_draws,
                                             sub_block, want):
        if sub_block is not None:
            monkeypatch.setattr(rng, "_SUB_BLOCK", sub_block)
        built = []
        filler = rng.uniform_filler

        def counting_filler(seed, channel, count):
            fill = filler(seed, channel, count)
            built.append([channel, 0])
            calls = built[-1]

            def counted(u, first_draw):
                calls[1] += 1
                fill(u, first_draw)
            return counted

        monkeypatch.setattr(rng, "uniform_filler", counting_filler)
        p = self.params(0.3, 0.1)
        records = noisy_records(p, 9, 5, n_draws)
        assert sorted(map(tuple, built)) == want
        if n_draws in self.RECORD_SHA256:
            assert hashlib.sha256(records.tobytes()).hexdigest() == \
                self.RECORD_SHA256[n_draws]
        for j in (0, n_draws - 1):
            assert records[j].tobytes() == generate(p, 9, 5 + j).tobytes()


class TestNumpyIntegerSeeds:
    # A seed or draw index that is a NumPy integer gives the bits of the
    # Python int, on the kernel fill (N = 20) and the native loop (N = 1000)
    @staticmethod
    def params(n):
        return make_params(amplitude=1.0, f0=1.0, fs=n, phase=0.4,
                           sigma_additive=0.3, sigma_phase=0.1, n_samples=n)

    @pytest.mark.parametrize("n", [20, 1000])
    @pytest.mark.parametrize("seed, draw_index", [
        (np.int64(5), 3), (np.int32(5), 3), (np.uint64(5), 3),
        (np.int64(-3), 3), (np.uint64(2**64 - 1), 3), (5, np.int64(3)),
        (5, np.int32(3)), (5, np.uint64(2**64 - 1))])
    def test_numpy_integers_give_the_python_int_bits(self, n, seed,
                                                     draw_index):
        p = self.params(n)
        want = generate(p, seed=int(seed), draw_index=int(draw_index))
        got = generate(p, seed=seed, draw_index=draw_index)
        assert got.tobytes() == want.tobytes()
        batch = noisy_records(p, seed, draw_index - 1, 3)
        assert batch[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed, draw_index", [
        (1.5, 0), (5, 2.0), ("5", 0), (np.float64(5.0), 0)])
    def test_a_non_integer_seed_or_draw_index_is_rejected(self, seed,
                                                         draw_index):
        with pytest.raises(OutOfRange, match="must be an integer"):
            generate(self.params(20), seed=seed, draw_index=draw_index)


class TestSnrHelpers:
    def test_snr_of_unit_noise(self):
        p = make_params(amplitude=1.0, f0=1.0, fs=4.0, sigma_additive=1.0,
                        n_samples=4)
        assert snr_linear(p) == pytest.approx(0.5)

    def test_snr_db_of_100(self):
        p = make_params(amplitude=1.0, f0=1.0, fs=4.0,
                        sigma_additive=sigma_x_for_snr(1.0, 100.0),
                        n_samples=4)
        assert snr_linear(p) == pytest.approx(100.0)

    def test_sigma_for_snr_inverts(self):
        assert sigma_x_for_snr(1.0, 0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("amplitude", [1e-155, 1e-200, 1e-300])
    def test_snr_survives_underflowing_squares(self, amplitude):
        # A^2 and sigma^2 are subnormal or 0 here; their ratio is not
        p = make_params(amplitude=amplitude, f0=1.0, fs=4.0,
                        sigma_additive=amplitude / 10.0, n_samples=4)
        assert snr_linear(p) == pytest.approx(50.0, rel=1e-15)

    @pytest.mark.parametrize("amplitude", [1e155, 1e200, 1e300])
    def test_snr_survives_overflowing_squares(self, amplitude):
        # A^2 and sigma^2 pass the float range here; their ratio does not
        p = make_params(amplitude=amplitude, f0=1.0, fs=4.0,
                        sigma_additive=amplitude / 10.0, n_samples=4)
        assert snr_linear(p) == pytest.approx(50.0, rel=1e-15)

    def test_snr_survives_an_overflowing_twice_sigma_square(self):
        # sigma^2 is finite, 2*sigma^2 is not: A^2/(2*sigma^2) would be 0
        p = make_params(amplitude=1.3e154, f0=1.0, fs=4.0,
                        sigma_additive=1.3e154 / 1.25, n_samples=4)
        assert p.sigma_additive**2 < math.inf
        assert snr_linear(p) == pytest.approx(0.78125, rel=1e-15)

    def test_snr_keeps_its_bits_in_the_normal_range(self):
        for amplitude, sigma in ((1.0, 0.3), (1e-150, 7e-151), (1e150, 3.0)):
            p = make_params(amplitude=amplitude, f0=1.0, fs=4.0,
                            sigma_additive=sigma, n_samples=4)
            assert snr_linear(p) == amplitude**2 / (2.0 * sigma**2)

    def test_noiseless_snr_is_infinite(self):
        p = quarter_period()
        assert snr_linear(p) == math.inf

    @pytest.mark.parametrize("amplitude", [0.0, -1.0, math.nan])
    def test_sigma_needs_a_positive_amplitude(self, amplitude):
        with pytest.raises(NonPositiveAmplitude):
            sigma_x_for_snr(amplitude, 1.0)

    def test_infinite_snr_means_zero_sigma(self):
        assert sigma_x_for_snr(2.0, math.inf) == 0.0

    @pytest.mark.parametrize("snr", [1e308, 1.7976931348623157e308])
    def test_sigma_survives_an_overflowing_twice_snr(self, snr):
        # 2*snr overflows to inf, which would make the record noiseless
        sigma = sigma_x_for_snr(1.0, snr)
        assert 2.0 * (sigma * math.sqrt(snr)) ** 2 == pytest.approx(1.0,
                                                                    rel=1e-15)

    def test_sigma_keeps_its_bits_below_the_overflow(self):
        for amplitude, snr in ((1.0, 100.0), (3.0, 1e-300), (1e-150, 1e250),
                               (1.0, 8.9e307)):
            assert sigma_x_for_snr(amplitude, snr) == \
                amplitude / math.sqrt(2.0 * snr)

    @pytest.mark.parametrize("amplitude, snr", [
        (1e-200, 1e300),   # the quotient underflows
        (5e-324, 4.0),
        (1e-300, 1e308),   # 2*snr overflows and the quotient underflows
    ])
    def test_sigma_underflowing_to_zero_is_rejected(self, amplitude, snr):
        # a finite SNR has noise; a std of 0 would be read as noiseless
        with pytest.raises(OutOfRange, match="underflows to 0"):
            sigma_x_for_snr(amplitude, snr)


class TestSampleCsv:
    def test_round_trip(self, tmp_path):
        # `syncphase gen` is the one writer of the format
        out = tmp_path / "record.csv"
        assert main(["gen", "--n", "30", "--snr-db", "0", "--sigma-p-deg", "1",
                     "--seed", "11", "--out", str(out)]) == 0
        with open(out) as fp:
            back = read_samples_csv(fp)
        p = make_params(amplitude=1.0, f0="1.0", fs="10.0",
                        sigma_additive=sigma_x_for_snr(1.0, 1.0),
                        sigma_phase=math.radians(1.0), n_samples=30)
        assert p.sigma_additive > 0 and p.sigma_phase > 0
        assert back.tobytes() == generate(p, seed=11).tobytes()

    def test_empty_file_rejected(self):
        with pytest.raises(EmptyInput):
            read_samples_csv(io.StringIO("n,sample\n"))

    def test_malformed_rows_rejected(self):
        with pytest.raises(OutOfRange):
            read_samples_csv(io.StringIO("n,sample\n0,1.0\n2,0.5\n"))
        with pytest.raises(OutOfRange):
            read_samples_csv(io.StringIO("n,sample\n0,not-a-number\n"))
        with pytest.raises(OutOfRange, match="malformed sample row: \\['0'\\]"):
            read_samples_csv(io.StringIO("n,sample\n0\n"))

    def test_blank_rows_are_skipped(self):
        back = read_samples_csv(io.StringIO("n,sample\n\n0,1.5\n\n1,-2.0\n"))
        assert back.tolist() == [1.5, -2.0]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected_naming_its_row(self, bad):
        with pytest.raises(OutOfRange, match="n=1"):
            read_samples_csv(io.StringIO(f"n,sample\n0,1.0\n1,{bad}\n"))
