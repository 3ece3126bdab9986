"""Noise models, reduction strategies, and the acquisition chain."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.catalog import bench_chain, integrated_chain
from repro.electronics.adc import ADC
from repro.electronics.chain import AcquisitionChain
from repro.electronics.mux import Multiplexer
from repro.electronics.noise import (
    CdsStrategy,
    ChoppingStrategy,
    NoiseModel,
    NoStrategy,
    flicker_noise_series,
)
from repro.electronics.potentiostat import Potentiostat
from repro.electronics.tia import TransimpedanceAmplifier
from repro.errors import ElectronicsError


class TestFlickerSynthesis:
    def test_zero_density_is_silent(self, rng):
        out = flicker_noise_series(rng, 256, 10.0, 0.0)
        assert np.all(out == 0.0)

    def test_rms_matches_band_integral(self, rng):
        density = 1e-9
        n, fs = 4096, 10.0
        series = flicker_noise_series(rng, n, fs, density)
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        band = freqs[freqs > 0.0]
        target_var = np.sum(density ** 2 / band) * (fs / n)
        assert np.var(series) == pytest.approx(target_var, rel=1e-6)

    def test_spectrum_falls_with_frequency(self, rng):
        # Average many realisations; low-frequency PSD must exceed high.
        n, fs = 2048, 10.0
        psd = np.zeros(n // 2 + 1)
        for _ in range(20):
            s = flicker_noise_series(rng, n, fs, 1e-9)
            psd += np.abs(np.fft.rfft(s)) ** 2
        low = psd[1:20].mean()
        high = psd[-200:].mean()
        assert low > 10.0 * high


class TestNoiseModel:
    def test_rms_in_band_white_only(self):
        model = NoiseModel(white_density=1e-12, flicker_corner=0.0)
        assert model.rms_in_band(1.0, 101.0) == pytest.approx(1e-11)

    def test_flicker_adds_log_term(self):
        white = NoiseModel(white_density=1e-12, flicker_corner=0.0)
        pink = NoiseModel(white_density=1e-12, flicker_corner=10.0)
        assert pink.rms_in_band(0.01, 10.0) > white.rms_in_band(0.01, 10.0)

    def test_sample_std_scales_with_density(self, rng):
        quiet = NoiseModel(white_density=1e-12, flicker_corner=0.0)
        loud = NoiseModel(white_density=1e-10, flicker_corner=0.0)
        sq = np.std(quiet.sample(rng, 2000, 10.0))
        sl = np.std(loud.sample(rng, 2000, 10.0))
        assert sl / sq == pytest.approx(100.0, rel=0.2)

    def test_drift_is_a_ramp(self, rng):
        model = NoiseModel(white_density=0.0, flicker_corner=0.0,
                           drift_rate=1e-9)
        series = model.sample(rng, 100, 10.0)
        assert series[-1] == pytest.approx(1e-9 * 9.9, rel=1e-6)


def _flicker_by_formula(rng, n, sample_rate, density_at_1hz):
    """``flicker_noise_series`` as written before its shape constants
    were memoised: every constant rebuilt per call."""
    if density_at_1hz == 0.0 or n == 1:
        return np.zeros(n)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    shaping = np.zeros_like(freqs)
    nonzero = freqs > 0.0
    shaping[nonzero] = 1.0 / np.sqrt(freqs[nonzero])
    shaped = np.fft.irfft(spectrum * shaping, n=n)
    df = sample_rate / n
    target_var = np.sum(density_at_1hz ** 2 / freqs[nonzero]) * df
    realised_var = float(np.var(shaped))
    if realised_var <= 0.0:
        return np.zeros(n)
    return shaped * math.sqrt(target_var / realised_var)


class TestRecordConstants:
    """The per-shape memo of the noise draw moves no bit."""

    @pytest.mark.parametrize("n", [2, 151, 501, 651, 4096])
    @pytest.mark.parametrize("sample_rate", [10.0, 4.0, 0.5])
    def test_sample_equals_the_formula(self, n, sample_rate):
        model = NoiseModel(white_density=3e-12, flicker_corner=10.0,
                           drift_rate=2e-10)
        for _ in range(2):  # a cold and a warm memo
            rng = np.random.default_rng(n)
            reference = np.random.default_rng(n)
            white = (reference.standard_normal(n) * model.white_density
                     * math.sqrt(sample_rate / 2.0))
            flicker = _flicker_by_formula(reference, n, sample_rate,
                                          model.flicker_density_at_1hz)
            drift = model.drift_rate * (np.arange(n) / sample_rate)
            out = model.sample(rng, n, sample_rate)
            assert out.tobytes() == (white + flicker + drift).tobytes()
            assert (flicker_noise_series(rng, n, sample_rate, 1e-9).tobytes()
                    == _flicker_by_formula(reference, n, sample_rate,
                                           1e-9).tobytes())

    def test_memo_is_bounded_and_read_only(self):
        from repro.electronics.noise import _record_constants

        assert _record_constants.cache_info().maxsize is not None
        record = _record_constants(64, 10.0)
        assert _record_constants(64, 10.0) is record
        for array in (record.ramp, record.shaping, record.band):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestStrategies:
    def test_no_strategy_identity(self):
        model = NoiseModel(white_density=1e-12, flicker_corner=10.0,
                           drift_rate=1e-10)
        assert NoStrategy().effective_noise(model) == model

    def test_chopping_shrinks_corner_and_kills_drift(self):
        model = NoiseModel(white_density=1e-12, flicker_corner=10.0,
                           drift_rate=1e-10)
        out = ChoppingStrategy(chop_frequency=1e3).effective_noise(model)
        assert out.flicker_corner == pytest.approx(0.1)
        assert out.drift_rate == 0.0
        assert out.white_density == model.white_density

    def test_chopping_below_corner_rejected(self):
        model = NoiseModel(white_density=1e-12, flicker_corner=10.0)
        with pytest.raises(ElectronicsError, match="above"):
            ChoppingStrategy(chop_frequency=5.0).effective_noise(model)

    def test_cds_white_penalty_and_flicker_cancellation(self):
        model = NoiseModel(white_density=1e-12, flicker_corner=10.0,
                           drift_rate=1e-10)
        out = CdsStrategy(correlation=0.9).effective_noise(model)
        assert out.white_density == pytest.approx(1e-12 * math.sqrt(2.0))
        assert out.drift_rate == 0.0
        # Residual flicker well below the raw corner.
        assert out.flicker_corner < model.flicker_corner

    def test_strategies_reduce_low_frequency_rms(self):
        model = NoiseModel(white_density=1e-12, flicker_corner=50.0)
        raw = model.rms_in_band(0.01, 5.0)
        chopped = ChoppingStrategy().effective_noise(model).rms_in_band(
            0.01, 5.0)
        cds = CdsStrategy().effective_noise(model).rms_in_band(0.01, 5.0)
        assert chopped < raw
        assert cds < raw

    def test_cds_needs_blank_electrode_flag(self):
        assert CdsStrategy().needs_blank_electrode
        assert not ChoppingStrategy().needs_blank_electrode


class TestAcquisitionChain:
    def _chain(self, **kwargs):
        return AcquisitionChain(
            potentiostat=Potentiostat(),
            tia=TransimpedanceAmplifier.for_range(10e-6),
            adc=ADC.for_readout(10e-6, 10e-9), **kwargs)

    def test_digitize_recovers_constant_current(self, rng):
        chain = self._chain()
        times = np.arange(200) / 10.0
        currents = np.full(200, 2.0e-6)
        reading = chain.digitize(times, currents, rng=rng)
        assert np.mean(reading.current_estimate) == pytest.approx(
            2.0e-6, rel=0.02)
        assert not reading.any_saturated

    def test_saturation_flagged(self, rng):
        chain = self._chain()
        times = np.arange(20) / 10.0
        currents = np.full(20, 50e-6)  # beyond the 10 uA class
        reading = chain.digitize(times, currents, rng=rng)
        assert reading.any_saturated

    def test_measure_constant_reports_noise(self, rng):
        chain = self._chain()
        mean, std = chain.measure_constant(1e-6, duration=5.0, rng=rng)
        assert mean == pytest.approx(1e-6, rel=0.05)
        assert std > 0.0

    def test_nonuniform_times_rejected(self, rng):
        chain = self._chain()
        times = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ElectronicsError, match="uniform"):
            chain.digitize(times, np.zeros(3), rng=rng)

    def test_mux_schedule_needs_mux(self, rng):
        chain = self._chain()
        mux = Multiplexer()
        schedule = mux.round_robin(["a"], dwell=1.0)
        times = np.arange(10) / 10.0
        with pytest.raises(ElectronicsError, match="no mux"):
            chain.digitize(times, np.zeros(10), schedule=schedule, rng=rng)

    def test_mux_settling_attenuates_early_samples(self, rng):
        mux = Multiplexer(settling_time=0.2, charge_injection=0.0)
        chain = self._chain(mux=mux)
        schedule = mux.round_robin(["a"], dwell=10.0)
        times = np.arange(100) / 10.0
        currents = np.full(100, 5e-6)
        reading = chain.digitize(times, currents, schedule=schedule, rng=rng)
        # Early samples slew; late samples sit at the true value.
        assert abs(reading.current_estimate[1]) < 3.0e-6
        assert np.mean(reading.current_estimate[-20:]) == pytest.approx(
            5e-6, rel=0.05)

    def test_quantization_noise_floor(self):
        chain = self._chain()
        assert chain.quantization_noise_rms() > 0.0
        assert chain.effective_input_noise() >= chain.quantization_noise_rms()

    def test_noise_strategy_improves_effective_noise(self):
        raw = self._chain()
        chopped = AcquisitionChain(
            potentiostat=Potentiostat(),
            tia=TransimpedanceAmplifier.for_range(10e-6),
            adc=ADC.for_readout(10e-6, 10e-9),
            noise_strategy=ChoppingStrategy())
        assert chopped.noise_rms() < raw.noise_rms()

    def test_budgets_positive(self):
        chain = self._chain(mux=Multiplexer())
        assert chain.total_power() > 0.0
        assert chain.total_area_mm2() > 0.0

    def test_describe_mentions_blocks(self):
        chain = self._chain()
        text = chain.describe()
        assert "potentiostat" in text
        assert "TIA" in text
        assert "ADC" in text


class TestTransferAgainstBlocks:
    """``digitize``/``digitize_batch`` pinned to the blocks they chain.

    The expected readings apply the mux, TIA and ADC methods row by row
    to ``currents + noise``; the chain runs the whole stack in one 2-D
    pass, so these cases hold only while every step is elementwise.
    """

    N = 48

    def _chain(self, mux=None):
        # The ADC spans half the TIA's rails, so a row can saturate
        # the converter alone.
        return AcquisitionChain(
            potentiostat=Potentiostat(),
            tia=TransimpedanceAmplifier.for_range(10e-6),
            adc=ADC.for_readout(10e-6, 10e-9, rail=0.6), mux=mux, seed=77)

    def _currents(self):
        t = np.arange(self.N) / 10.0
        return np.vstack([
            2.0e-6 * (1.0 + np.sin(t)),
            np.full(self.N, 50e-6),             # beyond the rails
            np.linspace(-30e-6, 30e-6, self.N),  # crosses both rails
            np.full(self.N, 7e-6),              # beyond the ADC only
        ])

    def _expected(self, chain, times, currents, noise, schedule):
        tia, adc = chain.tia, chain.adc
        rows = []
        for current, row_noise in zip(currents, noise):
            effective = current
            if schedule is not None:
                since = schedule.times_since_switch(times)
                effective = (current * chain.mux.settling_factors(since)
                             + chain.mux.injection_currents(since))
            inputs = effective + row_noise
            volts = tia.output_voltage(inputs)
            codes = adc.quantize(volts)
            rows.append((inputs, volts, codes,
                         tia.input_current(adc.to_voltage(codes)),
                         tia.saturates(inputs) | adc.saturates(volts)))
        return rows

    def _assert_matches(self, readings, expected, currents):
        assert len(readings) == len(expected)
        for reading, current, (inputs, volts, codes, estimates,
                               saturated) in zip(readings, currents,
                                                 expected):
            assert np.array_equal(reading.true_current, current)
            assert np.array_equal(reading.input_current, inputs)
            assert np.array_equal(reading.output_voltage, volts)
            assert np.array_equal(reading.codes, codes)
            assert np.array_equal(reading.current_estimate, estimates)
            assert np.array_equal(reading.saturated, saturated)

    @pytest.fixture(params=["plain", "mux"])
    def setup(self, request):
        times = np.arange(self.N) / 10.0
        if request.param == "plain":
            return self._chain(), times, None
        mux = Multiplexer(settling_time=0.2)
        return (self._chain(mux=mux), times,
                mux.round_robin(["a", "b"], dwell=1.0))

    def test_batch_with_noise_matches_blocks(self, setup, rng):
        chain, times, schedule = setup
        currents = self._currents()
        noise = 1.0e-7 * rng.standard_normal(currents.shape)
        readings = chain.digitize_batch(times, currents, schedule=schedule,
                                        noise=noise)
        self._assert_matches(
            readings, self._expected(chain, times, currents, noise,
                                     schedule), currents)
        assert not readings[0].any_saturated
        assert readings[1].any_saturated and readings[2].any_saturated
        assert not readings[2].saturated.all()
        assert not chain.tia.saturates(readings[3].input_current).any()
        assert readings[3].any_saturated

    def test_drawn_noise_matches_blocks(self, setup):
        chain, times, schedule = setup
        currents = self._currents()
        reference = np.random.default_rng(5)
        noise = [chain.draw_noise(reference, None, times) for _ in currents]
        expected = self._expected(chain, times, currents, noise, schedule)
        batch = chain.digitize_batch(times, currents, schedule=schedule,
                                     rng=np.random.default_rng(5))
        self._assert_matches(batch, expected, currents)
        generator = np.random.default_rng(5)
        single = [chain.digitize(times, current, schedule=schedule,
                                 rng=generator) for current in currents]
        self._assert_matches(single, expected, currents)

    def test_batch_draws_like_draw_noise(self, glucose_cell):
        chain = self._chain()
        we = glucose_cell.working_electrodes[0]
        times = np.arange(self.N) / 10.0
        currents = self._currents()
        wes = [we, None, we, None]
        batch_rng = np.random.default_rng(9)
        chain.digitize_batch(times, currents, wes=wes, rng=batch_rng)
        draw_rng = np.random.default_rng(9)
        for row_we in wes:
            chain.draw_noise(draw_rng, row_we, times)
        assert batch_rng.bit_generator.state == draw_rng.bit_generator.state

    @pytest.mark.parametrize("chain", [
        bench_chain(), integrated_chain("oxidase"), integrated_chain("cyp"),
        integrated_chain("cyp_micro"), AcquisitionChain()],
        ids=["bench", "oxidase", "cyp", "cyp_micro", "default"])
    def test_catalog_chain_flags_are_the_tia_rails(self, chain):
        # Catalog ADCs span exactly the TIA rails, so the TIA's own
        # check is every flag the chain raises.
        full_scale = chain.tia.full_scale_current
        times = np.arange(self.N) / 10.0
        currents = np.vstack([
            np.linspace(-2.0 * full_scale, 2.0 * full_scale, self.N),
            np.full(self.N, full_scale), np.full(self.N, -full_scale),
            np.full(self.N, np.nan)])
        with np.errstate(invalid="ignore"):  # NaN rows cast to codes
            readings = chain.digitize_batch(times, currents,
                                            noise=np.zeros_like(currents))
        for reading in readings:
            assert np.array_equal(reading.saturated,
                                  chain.tia.saturates(reading.input_current))
        assert readings[0].any_saturated and not readings[0].saturated.all()
        assert not readings[3].any_saturated

    def test_draw_noise_rate_from_time_axis(self):
        chain = self._chain()
        times = np.arange(32) / 4.0
        expected = chain.noise_model_for(None).sample(
            np.random.default_rng(3), 32, 4.0)
        assert np.array_equal(
            chain.draw_noise(np.random.default_rng(3), None, times),
            expected)
