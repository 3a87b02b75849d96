import concurrent.futures
import dataclasses
import io
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gfdetect
from gfdetect import cli, detect, harness
from gfdetect.cli import main
from gfdetect.errors import ConfigError, InvalidParameterError, SingularSystemError
from gfdetect.harness import (
    PRESETS,
    ExperimentConfig,
    MetricsRow,
    apply_settings,
    emit_csv,
    parse_sweep,
    run_sweep,
    run_trial,
)
from gfdetect.link import channel_mse, ls_channel_estimate
from gfdetect.pilots import gen_gaussian_dictionary


def quick_config(**kw):
    defaults = dict(trials=5, N=8, seed=1, D=3, M=48, detector="cov-lasso")
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# (axis, detector, success_rate, ser, channel_mse) of every figure preset at
# trials=3 seed=1: each detector's support, and the link stage's estimates,
# decisions and scores for it (fig4's M=16 point has fewer antennas than pilots)
PINNED_LINK_ROWS = {
    "fig2": [
        (2.0, "cov-lasso", 1.0, 0.0, 2.2092700623370694),
        (2.0, "msbl", 1.0, 0.0, 2.2092700623370694),
        (2.0, "bomp", 1.0, 0.0, 2.2092700623370694),
        (2.0, "mfocuss", 1.0, 0.0, 2.2092700623370694),
        (4.0, "cov-lasso", 1.0, 0.0, 4.6938274383889445),
        (4.0, "msbl", 1.0, 0.0, 4.6938274383889445),
        (4.0, "bomp", 0.6666666666666666, 0.13333333333333333, 4.7519674010713615),
        (4.0, "mfocuss", 1.0, 0.0, 4.6938274383889445),
        (6.0, "cov-lasso", 1.0, 0.008333333333333333, 7.85449216891334),
        (6.0, "msbl", 0.6666666666666666, 0.11805555555555557, 7.626981993704571),
        (6.0, "bomp", 0.3333333333333333, 0.20595238095238097, 7.539558245481875),
        (6.0, "mfocuss", 1.0, 0.008333333333333333, 7.85449216891334),
        (8.0, "cov-lasso", 1.0, 0.03125, 11.900463745794383),
        (8.0, "msbl", 1.0, 0.03125, 11.900463745794383),
        (8.0, "bomp", 0.0, 0.45023148148148145, 10.125401906840244),
        (8.0, "mfocuss", 1.0, 0.03125, 11.900463745794383),
        (10.0, "cov-lasso", 1.0, 0.047499999999999994, 18.0078952769713),
        (10.0, "msbl", 1.0, 0.047499999999999994, 18.0078952769713),
        (10.0, "bomp", 0.0, 0.26994949494949494, 15.368763801161597),
        (10.0, "mfocuss", 1.0, 0.047499999999999994, 18.0078952769713),
        (12.0, "cov-lasso", 1.0, 0.08958333333333333, 27.928997455386607),
        (12.0, "msbl", 1.0, 0.08958333333333333, 27.928997455386607),
        (12.0, "bomp", 0.0, 0.46388888888888885, 20.86554233242178),
        (12.0, "mfocuss", 1.0, 0.08958333333333333, 27.928997455386607),
    ],
    "fig3": [
        (-10.0, "cov-lasso", 0.0, 0.8440625, 95.79403763667803),
        (-10.0, "msbl", 0.0, 0.8665384615384615, 52.12986502940927),
        (-10.0, "bomp", 0.0, 0.8364705882352941, 66.7122620352027),
        (-10.0, "mfocuss", 0.0, 0.9866666666666667, 14.442877127674434),
        (-5.0, "cov-lasso", 0.0, 0.4360722610722611, 51.81607553755017),
        (-5.0, "msbl", 0.0, 0.5287121212121212, 35.97529447096186),
        (-5.0, "bomp", 0.0, 0.7386755952380953, 28.434247753732766),
        (-5.0, "mfocuss", 0.0, 0.9225, 13.048647449014211),
        (0.0, "cov-lasso", 1.0, 0.059166666666666666, 16.662205778891792),
        (0.0, "msbl", 1.0, 0.059166666666666666, 16.662205778891792),
        (0.0, "bomp", 0.0, 0.3212121212121212, 14.964577281741796),
        (0.0, "mfocuss", 1.0, 0.059166666666666666, 16.662205778891792),
        (5.0, "cov-lasso", 1.0, 0.0033333333333333335, 5.916023311926374),
        (5.0, "msbl", 1.0, 0.0033333333333333335, 5.916023311926374),
        (5.0, "bomp", 0.3333333333333333, 0.12348484848484849, 5.973833182809984),
        (5.0, "mfocuss", 1.0, 0.0033333333333333335, 5.916023311926374),
        (10.0, "cov-lasso", 1.0, 0.0, 1.8007895276971297),
        (10.0, "msbl", 1.0, 0.0, 1.8007895276971297),
        (10.0, "bomp", 0.6666666666666666, 0.06060606060606061, 2.278788392813982),
        (10.0, "mfocuss", 1.0, 0.0, 1.8007895276971297),
    ],
    "fig4": [
        (16.0, "cov-lasso", 0.0, 0.616559829059829, 17.151942262370426),
        (16.0, "msbl", 0.0, 0.6044444444444445, 16.422483208303692),
        (16.0, "bomp", 0.0, 0.7941269841269842, 14.205130135147286),
        (16.0, "mfocuss", 0.0, 0.5753030303030303, 15.14438295876846),
        (32.0, "cov-lasso", 0.0, 0.3995580808080808, 15.05232452586973),
        (32.0, "msbl", 0.0, 0.38166666666666665, 13.27871490724811),
        (32.0, "bomp", 0.0, 0.5036324786324786, 14.415264072465964),
        (32.0, "mfocuss", 0.0, 0.35166666666666674, 13.18295661377086),
        (64.0, "cov-lasso", 1.0, 0.1025, 16.201420941897908),
        (64.0, "msbl", 0.0, 0.24083333333333334, 14.495283943952707),
        (64.0, "bomp", 0.0, 0.37202380952380953, 15.250301003639613),
        (64.0, "mfocuss", 0.0, 0.22083333333333333, 15.097935262651353),
        (128.0, "cov-lasso", 1.0, 0.06, 18.708108356340123),
        (128.0, "msbl", 0.6666666666666666, 0.09166666666666667, 18.437826634788184),
        (128.0, "bomp", 0.0, 0.47592074592074596, 14.82336394944557),
        (128.0, "mfocuss", 0.6666666666666666, 0.09749999999999999, 17.693390145048244),
        (256.0, "cov-lasso", 1.0, 0.03916666666666667, 18.556138056749727),
        (256.0, "msbl", 1.0, 0.03916666666666667, 18.556138056749727),
        (256.0, "bomp", 0.0, 0.21515151515151518, 15.387417028080478),
        (256.0, "mfocuss", 1.0, 0.03916666666666667, 18.556138056749727),
    ],
    "fig5": [
        (-10.0, "cov-lasso", 0.3333333333333333, 0.5887037037037037, 50.93189281566291),
        (-10.0, "msbl", 0.0, 0.7444444444444445, 26.643258227765937),
        (-10.0, "pai", 1.0, 0.17500000000000002, 80.95081908429046),
        (-10.0, "paci", 1.0, 0.0, 0.0),
        (-5.0, "cov-lasso", 1.0, 0.016666666666666666, 25.23396497308668),
        (-5.0, "msbl", 0.6666666666666666, 0.07083333333333335, 24.00531694806405),
        (-5.0, "pai", 1.0, 0.016666666666666666, 25.23396497308668),
        (-5.0, "paci", 1.0, 0.0, 0.0),
        (0.0, "cov-lasso", 1.0, 0.0, 8.246534861801054),
        (0.0, "msbl", 1.0, 0.0, 8.246534861801054),
        (0.0, "pai", 1.0, 0.0, 8.246534861801054),
        (0.0, "paci", 1.0, 0.0, 0.0),
        (5.0, "cov-lasso", 1.0, 0.0, 2.508546451648057),
        (5.0, "msbl", 1.0, 0.0, 2.508546451648057),
        (5.0, "pai", 1.0, 0.0, 2.508546451648057),
        (5.0, "paci", 1.0, 0.0, 0.0),
        (10.0, "cov-lasso", 1.0, 0.0, 0.8006949113707172),
        (10.0, "msbl", 1.0, 0.0, 0.8006949113707172),
        (10.0, "pai", 1.0, 0.0, 0.8006949113707172),
        (10.0, "paci", 1.0, 0.0, 0.0),
    ],
    "fig6": [
        (2.0, "cov-lasso", 1.0, 0.0, 0.20636358424699322),
        (2.0, "msbl", 1.0, 0.0, 0.20636358424699322),
        (2.0, "pai", 1.0, 0.0, 0.20636358424699322),
        (2.0, "paci", 1.0, 0.0, 0.0),
        (4.0, "cov-lasso", 1.0, 0.0, 0.4934829474866887),
        (4.0, "msbl", 1.0, 0.0, 0.4934829474866887),
        (4.0, "pai", 1.0, 0.0, 0.4934829474866887),
        (4.0, "paci", 1.0, 0.0, 0.0),
        (6.0, "cov-lasso", 1.0, 0.0, 0.8246534861801055),
        (6.0, "msbl", 1.0, 0.0, 0.8246534861801055),
        (6.0, "pai", 1.0, 0.0, 0.8246534861801055),
        (6.0, "paci", 1.0, 0.0, 0.0),
        (8.0, "cov-lasso", 1.0, 0.0, 1.199067725279808),
        (8.0, "msbl", 1.0, 0.0, 1.199067725279808),
        (8.0, "pai", 1.0, 0.0, 1.199067725279808),
        (8.0, "paci", 1.0, 0.0, 0.0),
        (10.0, "cov-lasso", 1.0, 0.0, 1.8542113283997868),
        (10.0, "msbl", 1.0, 0.0, 1.8542113283997868),
        (10.0, "pai", 1.0, 0.0, 1.8542113283997868),
        (10.0, "paci", 1.0, 0.0, 0.0),
        (12.0, "cov-lasso", 1.0, 0.0, 2.7219971070867204),
        (12.0, "msbl", 1.0, 0.0, 2.7219971070867204),
        (12.0, "pai", 1.0, 0.0, 2.7219971070867204),
        (12.0, "paci", 1.0, 0.0, 0.0),
    ],
}


# (axis, detector, success_rate, ser, channel_mse) at K=32 L=12 M=64 D=4 N=8
# detector=all,pai,paci trials=6 seed=3 for two settings no preset runs:
# Bernoulli activity and a threshold support
PINNED_OFF_PRESET_ROWS = {
    "bernoulli-activity": (dict(activity_prob="0.15", sweep="snr:0,10"), [
        (0.0, "cov-lasso", 1.0, 0.0679563492063492, 8.41289722416314),
        (0.0, "msbl", 0.8333333333333334, 0.13306051587301587, 7.139256084839839),
        (0.0, "bomp", 0.6666666666666666, 0.27584741647241645, 6.353432046861311),
        (0.0, "mfocuss", 0.8333333333333334, 0.13306051587301587, 7.139256084839839),
        (0.0, "pai", 1.0, 0.0679563492063492, 8.41289722416314),
        (0.0, "paci", 1.0, 0.0, 0.0),
        (10.0, "cov-lasso", 1.0, 0.0, 1.2913348376036582),
        (10.0, "msbl", 1.0, 0.0, 1.2913348376036582),
        (10.0, "bomp", 0.6666666666666666, 0.17613636363636362, 2.456458049171444),
        (10.0, "mfocuss", 1.0, 0.0, 1.2913348376036582),
        (10.0, "pai", 1.0, 0.0, 1.2913348376036582),
        (10.0, "paci", 1.0, 0.0, 0.0),
    ]),
    "threshold-support": (dict(known_sparsity="false", sweep="sparsity:2,6"), [
        (2.0, "cov-lasso", 0.16666666666666666, 0.47962962962962963, 3.2961135025602926),
        (2.0, "msbl", 1.0, 0.0, 2.042833862486274),
        (2.0, "bomp", 1.0, 0.0, 2.042833862486274),
        (2.0, "mfocuss", 1.0, 0.0, 2.042833862486274),
        (2.0, "pai", 1.0, 0.0, 2.042833862486274),
        (2.0, "paci", 1.0, 0.0, 0.0),
        (6.0, "cov-lasso", 0.3333333333333333, 0.23900462962962962, 13.45829717898119),
        (6.0, "msbl", 0.3333333333333333, 0.16319444444444445, 8.921269947787225),
        (6.0, "bomp", 0.0, 0.5353009259259259, 8.481343415949445),
        (6.0, "mfocuss", 0.6666666666666666, 0.10763888888888888, 9.07041806078034),
        (6.0, "pai", 1.0, 0.05555555555555555, 9.659381807696457),
        (6.0, "paci", 1.0, 0.0, 0.0),
    ]),
}


class TestConfigValidation:
    def test_defaults_follow_reference_setup(self):
        c = ExperimentConfig()
        assert (c.K, c.L) == (64, 20)
        assert c.trials == 200

    def test_detector_parsing(self):
        assert ExperimentConfig(detector="all").detector_list() == ("cov-lasso", "msbl", "bomp", "mfocuss")
        assert ExperimentConfig(detector="msbl, paci").detector_list() == ("msbl", "paci")
        with pytest.raises(ConfigError):
            ExperimentConfig(detector="nope").detector_list()

    def test_validate_rejects_bad_values(self):
        nan = float("nan")
        for bad in (
            dict(trials=0),
            dict(seed=-1),  # SeedSequence takes no negative entropy
            dict(lam=-0.1),
            dict(D=100),
            dict(sweep_axis="frequency"),
            dict(snr_db=nan),
            dict(snr_db=-4000.0),  # noise variance beyond the float range
            dict(sweep_axis="sparsity", sweep_values=(2.5,)),
            dict(sweep_axis="sparsity", sweep_values=(nan,)),
            dict(sweep_axis="antennas", sweep_values=(0,)),
            dict(sweep_axis="snr", sweep_values=(0.0, nan)),
            dict(sweep_values=(1.0, 2.0)),  # values without an axis would run one unswept point
        ):
            with pytest.raises(ConfigError):
                quick_config(**bad).validate()

    def test_sparsity_sweep_ignores_the_base_d(self):
        # every point sets its own D, so the default D=10 > K is never used
        cfg = apply_settings(ExperimentConfig(), dict(K="8", L="4", M="8", trials="1", sweep="sparsity:1,2"))
        cfg.validate()
        rows = run_sweep(cfg)
        assert [(r.axis, r.detector) for r in rows] == [(1.0, "cov-lasso"), (2.0, "cov-lasso")]
        with pytest.raises(ConfigError):
            apply_settings(ExperimentConfig(), dict(K="8", D="9")).validate()

    def test_sparsity_sweep_needs_fixed_size_mode(self):
        cfg = quick_config(sweep_axis="sparsity", sweep_values=(2, 4), activity_prob=0.1)
        with pytest.raises(ConfigError):
            cfg.validate()


class TestSweepParsing:
    def test_range_spec_is_rejected(self):
        # a sweep lists its values; start:step:stop is not a spelling of one
        with pytest.raises(ConfigError, match="expected axis:v1,v2"):
            parse_sweep("snr:-10:2:10")

    def test_list_spec(self):
        axis, values = parse_sweep("sparsity:2,4,6")
        assert axis == "sparsity"
        assert values == (2.0, 4.0, 6.0)

    def test_bad_specs(self):
        for spec in ("volume:1:1:5", "snr:1:0:5", "snr:", "snr:5:1:1", "snr:1:2:3:4:5",
                     "snr:-inf:1:0", "snr:0:inf:10", "snr:0:1:nan"):
            with pytest.raises(ConfigError):
                parse_sweep(spec)

    def test_infinite_snr_value_is_noiseless(self):
        axis, values = parse_sweep("snr:inf")
        assert (axis, values) == ("snr", (float("inf"),))
        quick_config(sweep_axis=axis, sweep_values=values).validate()


class TestPresets:
    def test_all_figures_present(self):
        assert set(PRESETS) == {f"fig{i}" for i in range(2, 9)}

    def test_captioned_parameters(self):
        for name in PRESETS:
            cfg = ExperimentConfig(**PRESETS[name])
            cfg.validate()
            assert cfg.K == 64 and cfg.L == 20
        assert ExperimentConfig(**PRESETS["fig2"]).M == 128
        assert ExperimentConfig(**PRESETS["fig2"]).snr_db == 0.0
        assert ExperimentConfig(**PRESETS["fig2"]).sweep_axis == "sparsity"
        assert ExperimentConfig(**PRESETS["fig3"]).D == 10
        assert ExperimentConfig(**PRESETS["fig4"]).sweep_axis == "antennas"
        for name in ("fig5", "fig6", "fig7", "fig8"):
            cfg = ExperimentConfig(**PRESETS[name])
            assert cfg.M == 500
            assert cfg.N == 40
            assert "paci" in cfg.detector_list()
        assert ExperimentConfig(**PRESETS["fig5"]).D == 6
        assert ExperimentConfig(**PRESETS["fig6"]).snr_db == 10.0
        assert ExperimentConfig(**PRESETS["fig8"]).D == 6


class TestRunTrial:
    def test_deterministic_record(self):
        cfg = quick_config(detector="all")
        assert run_trial(cfg, 4) == run_trial(cfg, 4)

    def test_noiseless_pipeline_succeeds(self):
        cfg = quick_config(snr_db=200.0, M=256, D=2, trials=1)
        rec = run_trial(cfg, 0)
        m = rec.metrics["cov-lasso"]
        assert m.success and m.ser == 0.0

    def test_degenerate_empty_support(self):
        cfg = quick_config(D=0, detector="all")
        rec = run_trial(cfg, 0)
        # no true actives: channel MSE is zero over the empty grid for everyone
        for m in rec.metrics.values():
            assert m.channel_mse == 0.0
        # detectors consuming the activity level return the empty support
        assert rec.metrics["cov-lasso"].success and rec.metrics["cov-lasso"].ser == 0.0
        assert rec.metrics["bomp"].success and rec.metrics["bomp"].ser == 0.0
        # threshold-rule baselines may false-alarm on pure noise; the record
        # still books that as failure with errors over the union grid
        for name in ("msbl", "mfocuss"):
            m = rec.metrics[name]
            assert m.success == (m.ser == 0.0)

    def test_genies_always_succeed(self):
        cfg = quick_config(detector="pai,paci", snr_db=-5.0)
        rec = run_trial(cfg, 1)
        assert rec.metrics["pai"].success and rec.metrics["paci"].success
        assert rec.metrics["paci"].channel_mse == 0.0

    def test_singular_estimate_scores_every_true_node_missed(self):
        # three active nodes cannot be estimated from pilots of length two
        cfg = quick_config(L=2, D=3, detector="cov-lasso,pai,paci")
        rec = run_trial(cfg, 0)
        assert rec.metrics["cov-lasso"].channel_mse == 3.0
        assert rec.metrics["pai"].channel_mse == 3.0
        assert rec.metrics["paci"].channel_mse == 0.0

    def test_singular_decode_without_data_keeps_the_estimate(self):
        # three estimated channels cannot be decoded on two antennas; with N=0
        # the empty decode still fails, and the estimate is scored as usual
        rec = run_trial(quick_config(N=0, M=2, D=3, detector="pai,paci"), 0)
        for m in rec.metrics.values():
            assert m.success and m.ser == 0.0
        assert 0.0 < rec.metrics["pai"].channel_mse < 3.0
        assert rec.metrics["paci"].channel_mse == 0.0

    def test_singular_decode_charges_the_kept_estimates(self, monkeypatch):
        seen = {}

        def recording(name, fn):  # keeps each call's arguments and result
            def wrapped(*args, **kwargs):
                seen[name] = args, fn(*args, **kwargs)
                return seen[name][1]
            return wrapped

        def singular_decode(Y_d, H_hat):
            raise SingularSystemError("forced")

        monkeypatch.setattr(harness, "draw_support", recording("support", harness.draw_support))
        monkeypatch.setattr(harness, "draw_channel_gaussian", recording("H", harness.draw_channel_gaussian))
        monkeypatch.setattr(harness, "detect_activity", recording("detection", harness.detect_activity))
        monkeypatch.setattr(harness, "ls_channel_estimate", recording("estimate", harness.ls_channel_estimate))
        monkeypatch.setattr(harness, "ls_data_decode", singular_decode)
        # at -5 dB trial 2 detects [4, 11, 38] for the true [4, 11, 43]
        m = run_trial(quick_config(snr_db=-5.0), 2).metrics["cov-lasso"]
        true_active = list(seen["support"][1].indices)
        detected = list(seen["detection"][1].support_hat.indices)
        assert set(true_active) - set(detected) and set(detected) - set(true_active)
        # the full-width estimate, zero outside the detected columns, read at the true ones
        H = seen["H"][1]
        H_hat = np.zeros_like(H)
        H_hat[:, detected] = ls_channel_estimate(*seen["estimate"][0])
        assert m.channel_mse == channel_mse(H[:, true_active], H_hat[:, true_active])
        assert m.channel_mse != len(true_active)  # what zero estimates would score
        # no decisions: every true node's row is wrong, the false alarm's zero row is right
        assert m.ser == len(true_active) / len(set(true_active) | set(detected))

    def test_shared_pilot_dictionary_mode(self):
        cfg = quick_config(redraw_pilots=False)
        a, b = run_trial(cfg, 0), run_trial(cfg, 1)
        assert a.metrics and b.metrics  # both trials ran against one dictionary


class TestRunSweep:
    def test_rows_ordered_and_complete(self):
        cfg = quick_config(sweep_axis="sparsity", sweep_values=(1, 2), detector="cov-lasso,bomp")
        rows = run_sweep(cfg)
        assert [(r.axis, r.detector) for r in rows] == [
            (1.0, "cov-lasso"), (1.0, "bomp"), (2.0, "cov-lasso"), (2.0, "bomp"),
        ]

    def test_worker_pool_matches_sequential(self):
        cfg = quick_config(sweep_axis="snr", sweep_values=(0.0, 10.0), trials=6, detector="cov-lasso,msbl")
        seq = run_sweep(cfg)
        par = run_sweep(dataclasses.replace(cfg, workers=3))
        assert len(seq) == 4
        assert [dataclasses.replace(r, runtime_ms=0.0) for r in seq] == [
            dataclasses.replace(r, runtime_ms=0.0) for r in par
        ]

    def test_worker_pool_matches_sequential_on_a_shared_code(self):
        # spawned workers draw the shared code and build its lift afresh
        cfg = quick_config(redraw_pilots=False, sweep_axis="snr", sweep_values=(0.0, 10.0), trials=6,
                           detector="cov-lasso,msbl")
        seq = run_sweep(cfg)
        par = run_sweep(dataclasses.replace(cfg, workers=3))
        assert len(seq) == 4
        assert [dataclasses.replace(r, runtime_ms=0.0) for r in seq] == [
            dataclasses.replace(r, runtime_ms=0.0) for r in par
        ]

    def test_worker_pool_spawns_one_blas_thread_workers_and_cleans_up(self, monkeypatch):
        def blas_threads():
            return {name: os.environ.get(name) for name in harness._BLAS_THREAD_VARIABLES}

        seen = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, *args, **kwargs):
                seen.append((self._mp_context.get_start_method(), blas_threads()))
                return super().map(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("MKL_NUM_THREADS", "")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = blas_threads()
        cfg = quick_config(sweep_axis="snr", sweep_values=(0.0, 10.0), trials=4, detector="cov-lasso,bomp")
        par = run_sweep(dataclasses.replace(cfg, workers=2))
        assert seen == [("spawn", dict.fromkeys(before, "1"))]
        assert multiprocessing.active_children() == []
        assert blas_threads() == before
        assert [dataclasses.replace(r, runtime_ms=0.0) for r in par] == [
            dataclasses.replace(r, runtime_ms=0.0) for r in run_sweep(cfg)
        ]

    def test_shared_code_lifted_once_per_sweep(self, monkeypatch):
        calls = []

        def counting_lift(S):
            calls.append(S.shape)
            return original(S)

        original = detect.khatri_rao_dictionary
        monkeypatch.setattr(detect, "khatri_rao_dictionary", counting_lift)
        monkeypatch.setattr(detect, "_memo", None)
        cfg = quick_config(redraw_pilots=False, sweep_axis="snr", sweep_values=(0.0, 10.0),
                           trials=3, detector="cov-lasso,msbl")
        cold = run_sweep(cfg)
        assert calls == [(cfg.L, cfg.K)]
        warm = run_sweep(cfg)  # the memo still holds this sweep's lift
        assert len(calls) == 1
        assert [dataclasses.replace(r, runtime_ms=0.0) for r in cold] == [
            dataclasses.replace(r, runtime_ms=0.0) for r in warm
        ]
        run_sweep(dataclasses.replace(cfg, redraw_pilots=True))
        assert len(calls) == 1 + 2 * cfg.trials

    def test_shared_dictionary_drawn_once_per_sweep(self, monkeypatch):
        calls = []

        def counting_draw(L, K, rng):
            calls.append((L, K))
            return gen_gaussian_dictionary(L, K, rng)

        monkeypatch.setattr(harness, "gen_gaussian_dictionary", counting_draw)
        harness._shared_pilots.cache_clear()
        cfg = quick_config(redraw_pilots=False, sweep_axis="snr", sweep_values=(0.0, 10.0),
                           trials=3, detector="cov-lasso,msbl")
        rows = run_sweep(cfg)
        assert calls == [(cfg.L, cfg.K)]
        S = harness._shared_pilots(cfg.L, cfg.K, cfg.seed)
        with pytest.raises(ValueError):
            S[0, 0] = 0.0
        # the uncached draw, repeated in every trial, gives the same rows
        monkeypatch.setattr(harness, "_shared_pilots", harness._shared_pilots.__wrapped__)
        fresh = run_sweep(cfg)
        assert len(calls) == 1 + 2 * cfg.trials
        assert [dataclasses.replace(r, runtime_ms=0.0) for r in rows] == [
            dataclasses.replace(r, runtime_ms=0.0) for r in fresh
        ]

    def test_each_row_aggregates_its_own_points_trials(self):
        cfg = quick_config(sweep_axis="snr", sweep_values=(-5.0, 10.0), trials=4)
        rows = run_sweep(cfg)
        for stream, (value, row) in enumerate(zip(cfg.sweep_values, rows)):
            point = dataclasses.replace(cfg, sweep_axis="none", sweep_values=(), snr_db=value, stream=stream)
            per = [run_trial(point, i).metrics["cov-lasso"] for i in range(cfg.trials)]
            assert row.axis == value
            assert row.success_rate == np.mean([m.success for m in per])
            assert row.ser == np.mean([m.ser for m in per])
            assert row.channel_mse == np.mean([m.channel_mse for m in per])

    def test_bound_column_present_when_enabled(self):
        # seed chosen so the shared dictionary's coherence admits D=2
        cfg = quick_config(
            K=10, L=8, D=2, M=512, snr_db=20.0, lam=0.3, seed=7,
            redraw_pilots=False, trials=3,
        )
        rows = run_sweep(cfg)
        assert rows[0].bound is not None and 0.0 <= rows[0].bound <= 1.0

    def test_fixed_penalty_on_a_shared_code_fills_the_bound(self):
        # no setting asks for the floor: the cov-lasso cell is filled wherever
        # it is defined, and stays empty for noiseless points and other detectors
        cfg = quick_config(
            K=10, L=8, D=2, M=512, lam=0.3, seed=7, redraw_pilots=False, trials=2,
            detector="cov-lasso,msbl", sweep_axis="snr", sweep_values=(20.0, math.inf),
        )
        rows = run_sweep(cfg)
        assert [(r.axis, r.detector) for r in rows] == [
            (20.0, "cov-lasso"), (20.0, "msbl"), (math.inf, "cov-lasso"), (math.inf, "msbl"),
        ]
        assert 0.0 <= rows[0].bound <= 1.0
        assert [r.bound for r in rows[1:]] == [None, None, None]

    def test_bound_at_high_snr(self):
        # the noise exponent exp(delta2) is beyond the float range here
        cfg = quick_config(
            K=10, L=8, D=2, M=512, snr_db=50.0, lam=0.3, seed=7,
            redraw_pilots=False, trials=1,
        )
        assert 0.0 <= run_sweep(cfg)[0].bound <= 1.0

    def test_bound_skipped_when_hypothesis_fails(self):
        # coherence too high for D=2: the bound column stays empty
        cfg = quick_config(
            K=10, L=8, D=2, M=512, snr_db=20.0, lam=0.3, seed=0,
            redraw_pilots=False, trials=3,
        )
        assert run_sweep(cfg)[0].bound is None

    @pytest.mark.parametrize("settings, floors", [
        (dict(D="2", snr="20", sweep="antennas:128,192,256,512"),
         [0.0, 0.9980824653116456, 0.9999998892535383, 1.0]),
        (dict(M="512", snr="20", sweep="sparsity:0,1,2"), [None, 0.9999999999999994, 1.0]),
        (dict(D="2", M="512", sweep="snr:10,50,inf"), [0.9124586606662637, 1.0, None]),
    ], ids=["antennas", "sparsity", "snr"])
    def test_pinned_recovery_floors(self, settings, floors):
        # D=0 and a noiseless point fall outside the floor's domain, so their cell is empty
        cfg = apply_settings(ExperimentConfig(), dict(
            K="10", L="8", lam="0.3", seed="7", N="0", redraw_pilots="false",
            detector="cov-lasso", trials="1", **settings,
        ))
        assert [r.bound for r in run_sweep(cfg)] == floors

    @pytest.mark.parametrize("preset", sorted(PINNED_LINK_ROWS))
    def test_pinned_link_stage_rows(self, preset):
        cfg = dataclasses.replace(ExperimentConfig(**PRESETS[preset]), trials=3, seed=1)
        rows = [(r.axis, r.detector, r.success_rate, r.ser, r.channel_mse) for r in run_sweep(cfg)]
        assert rows == PINNED_LINK_ROWS[preset]

    @pytest.mark.parametrize("setting", sorted(PINNED_OFF_PRESET_ROWS))
    def test_pinned_off_preset_rows(self, setting):
        settings, pinned = PINNED_OFF_PRESET_ROWS[setting]
        cfg = apply_settings(ExperimentConfig(), dict(
            K="32", L="12", M="64", D="4", N="8", detector="all,pai,paci", trials="6", seed="3",
            **settings,
        ))
        rows = [(r.axis, r.detector, r.success_rate, r.ser, r.channel_mse) for r in run_sweep(cfg)]
        assert rows == pinned

    def test_single_node_gives_no_bound(self):
        # one pilot column has no coherence, so the floor is undefined
        cfg = quick_config(
            K=1, L=4, D=1, M=16, lam=0.3, seed=1, detector="all",
            redraw_pilots=False, trials=3,
        )
        rows = run_sweep(cfg)
        assert [r.detector for r in rows] == ["cov-lasso", "msbl", "bomp", "mfocuss"]
        assert all(r.success_rate == 1.0 for r in rows)
        buf = io.StringIO()
        emit_csv(rows, buf)
        assert all(line.endswith(",") for line in buf.getvalue().splitlines()[1:])

    def test_bernoulli_activity_at_its_two_ends(self):
        # with no node active, MSBL and M-FOCUSS false-alarm on pure noise by design
        cfg = ExperimentConfig(K=32, L=12, M=64, seed=5, trials=20, detector="all,pai,paci",
                               activity_prob=0.0, snr_db=10.0)
        rows = {r.detector: r for r in run_sweep(cfg)}
        for name in ("cov-lasso", "bomp", "pai", "paci"):
            assert (rows[name].success_rate, rows[name].ser, rows[name].channel_mse) == (1.0, 0.0, 0.0)
        rows = run_sweep(dataclasses.replace(cfg, activity_prob=1.0, K=8, snr_db=math.inf))
        assert [r.detector for r in rows] == ["cov-lasso", "msbl", "bomp", "mfocuss", "pai", "paci"]
        assert all((r.success_rate, r.ser) == (1.0, 0.0) for r in rows)

    def test_antenna_sweep_changes_m(self):
        cfg = quick_config(sweep_axis="antennas", sweep_values=(16, 32), trials=3)
        rows = run_sweep(cfg)
        assert [r.axis for r in rows] == [16.0, 32.0]


class TestEmitCsv:
    def test_single_row_two_lines(self):
        buf = io.StringIO()
        emit_csv([MetricsRow(1.0, "cov-lasso", 0.5, 0.1, 2.0, 3.25)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "axis,detector,success_rate,ser,channel_mse,runtime_ms,bound"
        assert lines[1] == "1,cov-lasso,0.5,0.1,2,3.25,"
        assert len(lines) == 2

    def test_round_trip_six_significant_digits(self):
        rows = [MetricsRow(0.123456789, "msbl", 0.987654321, 0.000123456789, 12345.6789, 1.23456789, 0.5)]
        buf = io.StringIO()
        emit_csv(rows, buf)
        fields = buf.getvalue().splitlines()[1].split(",")
        assert float(fields[0]) == pytest.approx(0.123456789, rel=1e-5)
        assert float(fields[2]) == pytest.approx(0.987654321, rel=1e-5)
        assert float(fields[3]) == pytest.approx(0.000123456789, rel=1e-5)
        assert float(fields[4]) == pytest.approx(12345.6789, rel=1e-5)
        assert float(fields[6]) == 0.5

    def test_empty_rows_rejected(self):
        with pytest.raises(InvalidParameterError):
            emit_csv([], io.StringIO())

    def test_rate_invariants_enforced(self):
        with pytest.raises(InvalidParameterError):
            MetricsRow(0.0, "x", 1.5, 0.0, 0.0, 0.0)

    def test_writes_file_with_lf(self, tmp_path):
        target = tmp_path / "out.csv"
        emit_csv([MetricsRow(2.0, "bomp", 1.0, 0.0, 0.0, 1.0)], target)
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").startswith("axis,")


class TestCli:
    def test_sweep_to_file(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "sweep", "--sweep", "snr:0", "--trials", "3",
            "--D", "2", "--M", "32", "--N", "4", "--seed", "9", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("axis,")

    def test_sweep_flag_gives_one_row_group_per_value(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "sweep", "--sweep", "snr:0,10", "--trials", "1", "--D", "1", "--M", "8", "--N", "0",
            "--out", str(out),
        ])
        assert code == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "10"]

    def test_preset_flag(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main([
            "sweep", "--preset", "fig2", "--trials", "2", "--M", "16", "--N", "0",
            "--detector", "bomp", "--sweep", "sparsity:1,2", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_config_error_exit_code(self):
        assert main(["sweep", "--detector", "bogus"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--snr", "nan"],
        ["--lam", "nan"],
        ["--sweep", "sparsity:2.5"],
        ["--sweep", "antennas:0"],
        ["--sweep", "snr:nan"],
        ["--seed", "-1"],
        ["--sweep", "snr:-inf:1:0"],
        ["--sweep", "snr:0:inf:10"],
        ["--sweep", "snr:-10:2:10"],
        ["--sweep", "snr:1,,2"],
        ["--detector", "msbl,"],
        ["--detector", ","],
    ])
    def test_bad_value_exits_2_before_any_trial(self, flags, capsys):
        assert main(["sweep", *flags, "--trials", "1", "--M", "8", "--N", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("gfdetect: configuration error: ")
        assert captured.out == ""  # no CSV

    def test_io_error_exit_code(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main([
            "sweep", "--sweep", "snr:0", "--trials", "1",
            "--D", "1", "--M", "8", "--N", "0", "--out", str(missing_dir),
        ])
        assert code == 3

    def test_sweep_error_is_not_reported_as_a_write_error(self, monkeypatch, capsys):
        # an OSError inside the sweep, such as a worker pool that cannot start,
        # propagates; exit code 3 is kept for a failed CSV write
        def failing_sweep(config):
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        with pytest.raises(OSError, match="Resource temporarily unavailable"):
            main(["sweep", "--sweep", "snr:0", "--trials", "1"])
        assert "I/O error" not in capsys.readouterr().err

    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # a one-process sweep never starts a pool, so a cold start does not import one
        src = str(Path(gfdetect.__file__).resolve().parents[1])
        code = "import sys, gfdetect.cli; print('concurrent.futures.process' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False"

    def test_console_entry_point(self):
        # the child imports the package under test, wherever sys.path found it
        src = str(Path(gfdetect.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "gfdetect", "sweep", "--sweep", "snr:0",
             "--trials", "1", "--D", "1", "--M", "8", "--N", "0"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("axis,")

    def test_console_worker_pool_prints_the_one_process_csv(self):
        src = str(Path(gfdetect.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        tables = []
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "gfdetect", "sweep", "--sweep", "snr:0,10", "--trials", "4",
                 "--K", "16", "--L", "8", "--M", "16", "--D", "2", "--N", "4",
                 "--detector", "cov-lasso,msbl,pai", "--workers", workers],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            rows = [line.split(",") for line in proc.stdout.splitlines()]
            tables.append([row[:5] + row[6:] for row in rows])  # all but runtime_ms
        assert len(tables[0]) == 7
        assert tables[0] == tables[1]


class TestOrderIndependence:
    def test_trials_independent_of_execution_order(self):
        cfg = quick_config(trials=4)
        forward = [run_trial(cfg, i) for i in range(4)]
        backward = [run_trial(cfg, i) for i in reversed(range(4))]
        assert forward == list(reversed(backward))

    def test_success_rate_stable_across_seeds(self):
        # easy operating point: rates from different seeds agree within 3 SE
        rates = []
        for seed in (1, 2):
            cfg = quick_config(seed=seed, trials=40, D=2, M=96, snr_db=10.0)
            rows = run_sweep(dataclasses.replace(cfg, sweep_axis="snr", sweep_values=(10.0,)))
            rates.append(rows[0].success_rate)
        se = np.sqrt(0.5 * 0.5 / 40)
        assert abs(rates[0] - rates[1]) <= 3 * 2 * se
