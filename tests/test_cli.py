import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lmem.cli import (
    ConfigError,
    ExperimentConfig,
    edge_occupied_state,
    interior_word_family,
    main,
    nonproduct_initial_state,
    product_initial_state,
    run_experiment,
    write_csv,
)
from lmem.edge import ProductStateSpec, build_product_state
from lmem.fock import vectorize, vectorize_operator
from lmem.pauli import OperatorSum, PauliString, parity_word


def base_model(n):
    return {
        "n_sites": n,
        "couplings": [1.0] * (n - 1),
        "dephasing_rates": [1.0] * n,
    }


def make_config(tmp_path, **overrides):
    data = {
        "experiment": "fig3a",
        "model": base_model(4),
        "time_grid": {"t_max": 2.0, "n_samples": 5},
        "zeta": 0.5,
        "output_dir": str(tmp_path / "out"),
        "seed": 7,
    }
    data.update(overrides)
    return data


PURITY_N4 = {
    "experiment": "fig4-purity",
    "model": {"n_sites": 4, "couplings": [2.0] * 3, "dephasing_rates": [3.0] * 4},
    "time_grid": {"t_max": 2.0, "n_samples": 3},
}

SPECTRUM_N4 = {
    "experiment": "fig4-spectrum",
    "model": {"n_sites": 4, "couplings": [2.0] * 3, "dephasing_rates": [1.0] * 4},
    "gamma_scan": {"gamma_min": 1.0, "gamma_max": 3.0, "n_points": 3},
    "sector": "+-+",
}

CENSUS_N4 = {
    "experiment": "sector-census",
    "model": {"n_sites": 4, "couplings": [1.0] * 3, "dephasing_rates": [0.5] * 4},
    "with_spectra": True,
}


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config"):
            ExperimentConfig({"experiment": "fig3a", "model": base_model(4), "frobnicate": 1})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment must be"):
            ExperimentConfig({"experiment": "fig9"})

    def test_model_required(self):
        with pytest.raises(ConfigError, match="requires a model"):
            ExperimentConfig({"experiment": "fig3a"})

    def test_bad_time_grid(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                {"experiment": "fig3a", "model": base_model(4), "time_grid": {"t_max": -1}}
            )

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_t_max_rejected(self, tmp_path, text):
        # json.load accepts these literals; they must not reach the propagator
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"experiment": "fig3b", "model": %s, "time_grid": {"t_max": %s}}'
            % (json.dumps(base_model(4)), text)
        )
        with pytest.raises(ConfigError, match=r"time_grid\.t_max"):
            ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "scan",
        [
            {"gamma_min": float("nan"), "gamma_max": 4.0},
            {"gamma_min": 0.5, "gamma_max": float("nan")},
            {"gamma_min": 0.5, "gamma_max": float("inf")},
        ],
    )
    def test_non_finite_gamma_scan_rejected(self, scan):
        with pytest.raises(ConfigError, match="gamma_scan"):
            ExperimentConfig(
                {"experiment": "fig4-spectrum", "model": base_model(4), "gamma_scan": scan}
            )

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"experiment": "oracle-suite", "max_n_sites": 1}, "max_n_sites"),
            ({"experiment": "fig3b", "n_draws": 0}, "n_draws"),
            ({"experiment": "fig3b", "n_draws": -1}, "n_draws"),
            ({"experiment": "fig3b", "transverse_values": []}, "transverse_values"),
        ],
        ids=["max_n_sites=1", "n_draws=0", "n_draws=-1", "transverse_values=empty"],
    )
    def test_empty_run_rejected(self, overrides, field):
        # each of these used to write an empty run (or report a vacuous
        # all_passed), or fail inside numpy without naming the setting
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig({"model": base_model(4), **overrides})

    def test_sector_parsing(self):
        cfg = ExperimentConfig(
            {"experiment": "fig4-spectrum", "model": base_model(4), "sector": "+-+"}
        )
        assert cfg.sector.to_string() == "+-+"

    @pytest.mark.parametrize("label", ["+-+", "+-++-+"])
    def test_sector_length_rejected(self, label):
        # the shipped fig4-spectrum config is N=6, so a label needs 5 signs;
        # a wrong length used to fail inside the segment engine
        path = Path(__file__).resolve().parents[1] / "configs" / "fig4-spectrum.json"
        data = {**json.loads(path.read_text()), "sector": label}
        with pytest.raises(ConfigError, match=r"sector.*\b5\b.*n_sites=6"):
            ExperimentConfig(data)

    @pytest.mark.parametrize("experiment", ["fig3b", "oracle-suite"])
    def test_negative_seed_rejected(self, experiment):
        # used to fail inside np.random.SeedSequence / default_rng
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got seed=-1"):
            ExperimentConfig({"experiment": experiment, "model": base_model(4), "seed": -1})


def test_csv_formatting_round_trips_doubles(tmp_path):
    values = [np.pi, 1 / 3, 1e-300, -2.5e17]
    path = tmp_path / "x.csv"
    for column in (values, np.array(values)):
        write_csv(path, ["v"], [column])
        lines = path.read_text().splitlines()[1:]
        assert [float(s) for s in lines] == values


def rendered(header, rows) -> str:
    """The CSV text of rows, each value as `_fmt` formats it."""
    from lmem.cli import _fmt

    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


def test_csv_rows_match_the_value_formatter(tmp_path):
    from fractions import Fraction

    rows = [
        (True, np.True_, np.False_, 3, np.int64(-4), "label", np.str_("x"), 0.1, np.float64(-2.5e-17)),
        (False, False, True, 0, np.int32(7), "", "y", np.nan, np.float64(np.inf)),
        (1, 2, 3, 4, 5, "z", "w", -np.inf, np.float32(0.1)),
        (Fraction(1, 3), True, False, 1, 2, "f", "g", -0.0, 1e-300),  # any other number: float(value)
    ]
    header = [f"c{k}" for k in range(9)]
    path = tmp_path / "x.csv"
    write_csv(path, header, zip(*rows))  # mixed-type tuple columns
    assert path.read_text() == rendered(header, rows)


def test_csv_array_columns_match_the_value_formatter(tmp_path):
    floats = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -2.5e17, 0.1, 0.0, -0.0]
    columns = [
        np.array([True, False] * 5),
        np.arange(-5, 5, dtype=np.int32),
        np.arange(10, dtype=np.int64) * -(2 ** 40),
        np.array([2 ** 64 - 1] * 10, dtype=np.uint64),
        np.array(floats, dtype=np.float32),
        np.array(floats),
        np.array(floats)[::-1],  # not contiguous
        np.array(list("abcdefghij")),  # np.str_ values
    ]
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path / "x.csv"
    write_csv(path, header, columns)
    assert path.read_text() == rendered(header, zip(*columns))
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[5] == "0.0000000000000000e+00"
    assert lines[2].split(",")[5] == "-0.0000000000000000e+00"


def test_csv_repeated_values_match_the_value_formatter(tmp_path):
    # 4096 rows holding few distinct values, as a composed spectrum does
    rng = np.random.default_rng(5)
    pool = np.concatenate([rng.normal(size=13), [0.0, -0.0, np.nan]])
    columns = [pool[rng.integers(pool.size, size=4096)], np.tile(np.arange(512), 8), np.repeat(pool[:8], 512)]
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b", "c"], columns)
    assert path.read_text() == rendered(["a", "b", "c"], zip(*columns))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_spectrum_csvs_match_the_value_formatter(tmp_path, n):
    from lmem.dynamics import exceptional_point_scan
    from lmem.model import ModelParams
    from lmem.sectors import SectorLabel, all_sector_labels, compose_segment_spectra, sorted_spectrum

    model = {"n_sites": n, "couplings": [2.0] * (n - 1), "dephasing_rates": [1.0] * n}
    label = "+-" + "+" * (n - 3)
    scan = {"gamma_min": 0.5, "gamma_max": 4.0, "n_points": 8}
    run_experiment(ExperimentConfig({"experiment": "fig4-spectrum", "model": model, "gamma_scan": scan,
                                     "sector": label, "output_dir": str(tmp_path / "spectrum")}))
    run_experiment(ExperimentConfig({"experiment": "sector-census", "model": model, "with_spectra": True,
                                     "output_dir": str(tmp_path / "census")}))

    params = ModelParams.from_dict(model)
    points = exceptional_point_scan(params, np.linspace(0.5, 4.0, 8), SectorLabel.from_string(label))
    rows = [
        (pt.gamma, i, ev.real, ev.imag, pt.min_gap, pt.condition_number, pt.exceptional)
        for pt in points
        for i, ev in enumerate(sorted_spectrum(pt.eigenvalues))
    ]
    header = ["gamma", "index", "re", "im", "min_gap", "eigvec_cond", "ep_flag"]
    assert (tmp_path / "spectrum" / "fig4_spectrum.csv").read_text() == rendered(header, rows)
    assert len(rows) == 8 * 2 ** (n + 1)

    rows = [
        (lab.to_string(), i, ev.real, ev.imag)
        for lab in all_sector_labels(n)
        for i, ev in enumerate(sorted_spectrum(compose_segment_spectra(lab, params)[0]))
    ]
    assert (tmp_path / "census" / "sector_spectra.csv").read_text() == rendered(["label", "index", "re", "im"], rows)


def test_fig3a_end_to_end(tmp_path):
    cfg = ExperimentConfig(make_config(tmp_path))
    results = run_experiment(cfg)
    assert results["product"]["max_drift"] < 1e-6
    assert results["product"]["ratio_initial"] == pytest.approx(2.0, abs=1e-9)
    assert results["nonproduct"]["max_drift"] > 0.01
    out = tmp_path / "out"
    assert (out / "fig3a_product.csv").exists()
    assert (out / "fig3a_nonproduct.csv").exists()
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["seed"] == 7
    assert meta["version"].startswith("lmem-")
    header = (out / "fig3a_product.csv").read_text().splitlines()[0]
    assert header == "gamma_t,x1,x2,ratio"


def test_fig3a_rerun_bit_identical(tmp_path):
    cfg1 = ExperimentConfig(make_config(tmp_path, output_dir=str(tmp_path / "a")))
    cfg2 = ExperimentConfig(make_config(tmp_path, output_dir=str(tmp_path / "b")))
    run_experiment(cfg1)
    run_experiment(cfg2)
    for name in ("fig3a_product.csv", "fig3a_nonproduct.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fig3a_odd_sites_rejected(tmp_path):
    cfg = ExperimentConfig(make_config(tmp_path, model=base_model(5)))
    with pytest.raises(ConfigError, match="even"):
        run_experiment(cfg)


@pytest.mark.parametrize("experiment", ["fig3a", "fig3b"])
def test_nonpositive_product_state_names_setting(tmp_path, experiment):
    # at N=6 a bulk amplitude of 0.3 gives minimum eigenvalue -1.4e-2
    cfg = ExperimentConfig(
        make_config(tmp_path, experiment=experiment, model=base_model(6), bulk_amplitude=0.3)
    )
    with pytest.raises(ConfigError, match=r"bulk_amplitude or \|zeta\|"):
        run_experiment(cfg)


def test_nonpositive_nonproduct_state_names_setting(tmp_path):
    cfg = ExperimentConfig(make_config(tmp_path, nonproduct_amplitudes=[0.6, 0.6]))
    with pytest.raises(ConfigError, match="nonproduct_amplitudes"):
        run_experiment(cfg)


def test_nonpositive_edge_state_names_setting(tmp_path):
    # at N=4 and zeta=0.5 an edge amplitude of 0.6 gives minimum eigenvalue -6.5e-2
    cfg = ExperimentConfig(
        make_config(
            tmp_path,
            experiment="fig4-purity",
            model=base_model(4),
            edge_state_amplitude=0.6,
        )
    )
    with pytest.raises(ConfigError, match=r"edge_state_amplitude or \|zeta\|"):
        run_experiment(cfg)


def _dense_states(n, zeta, amp, deform):
    """The three initial states as dense matrices, assembled from matrix products."""
    ident = np.eye(2 ** n)
    m = parity_word(n).to_matrix()
    product = build_product_state(
        ProductStateSpec(zeta=zeta, a_terms=[(amp, w) for w in interior_word_family(n)]), n
    ).astype(complex)
    minus = ident - zeta * m
    sxsy = PauliString.single(n, 1, "X").mul(PauliString.single(n, 2, "Y"))
    nonproduct = (
        product
        + deform[0] * PauliString.single(n, 1, "Z").to_matrix() @ minus / 2 ** n
        + deform[1] * sxsy.to_matrix() @ minus / 2 ** n
    )
    words = [
        PauliString.single(n, 1, "Z"),
        PauliString.single(n, 1, "Y").mul(PauliString.single(n, 2, "X")),
        PauliString.single(n, 1, "Y").mul(PauliString.single(n, 3, "X")),
        PauliString.single(n, 1, "Z")
        .mul(PauliString.single(n, 2, "X"))
        .mul(PauliString.single(n, 3, "X")),
    ]
    bulk = sum(amp * (m @ w.to_matrix()) for w in words)
    edge = (ident + bulk) @ (ident + zeta * m) / 2 ** n
    return {"product": product, "nonproduct": nonproduct, "edge": edge}


@pytest.mark.parametrize("n", [4, 6])
def test_symbolic_initial_states_match_dense_forms(n):
    zeta, amp, deform = 0.5, 0.1, (0.05, 0.05)
    symbolic = {
        "product": product_initial_state(n, zeta, amp),
        "nonproduct": nonproduct_initial_state(n, zeta, amp, deform),
        "edge": edge_occupied_state(n, zeta, amp),
    }
    for name, dense in _dense_states(n, zeta, amp, deform).items():
        op = symbolic[name]
        np.testing.assert_allclose(op.to_matrix(), dense, rtol=0, atol=1e-15, err_msg=name)
        np.testing.assert_allclose(
            vectorize_operator(op).amplitudes,
            vectorize(dense, n).amplitudes,
            rtol=0,
            atol=1e-15,
            err_msg=name,
        )


@pytest.mark.parametrize(
    "overrides, pattern",
    [
        (
            {
                "experiment": "fig4-spectrum",
                "model": base_model(5),
                "sector": "----",
                "gamma_scan": {"gamma_min": 0.5, "gamma_max": 1.0, "n_points": 2},
            },
            r"sector='----' at n_sites=5: .*LMEM_DENSE_LIMIT",
        ),
        (
            {"experiment": "sector-census", "with_spectra": True},
            r"with_spectra at n_sites=4: .*LMEM_DENSE_LIMIT",
        ),
        # fig3a's states stay on the quadratic positivity path, which builds no 2^N matrix
        ({}, None),
        (
            {"experiment": "fig3b", "n_draws": 1},
            r"physicality check of the u=2 trajectory at n_sites=4: .*LMEM_DENSE_LIMIT.*; reduce n_sites$",
        ),
        (PURITY_N4, r"initial-state check at n_sites=4: .*LMEM_DENSE_LIMIT"),
    ],
    ids=["fig4-spectrum", "sector-census", "fig3a", "fig3b", "fig4-purity"],
)
def test_dense_cap_overflow_names_setting(tmp_path, monkeypatch, capsys, overrides, pattern):
    # used to end in a SizeLimitError traceback from pauli._check_dense
    monkeypatch.setenv("LMEM_DENSE_LIMIT", "3")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, **overrides)))
    if pattern is None:
        assert main(["run", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "metadata.json").exists()
        return
    with pytest.raises(ConfigError, match=pattern):
        run_experiment(ExperimentConfig.from_file(cfg_path))
    # lmem run reports the same message as a one-line usage error
    assert main(["run", str(cfg_path)]) == 2
    _assert_usage_error(capsys, pattern)


def _assert_usage_error(capsys, pattern):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lmem: error: ") and err.count("\n") == 1, err
    assert re.search(pattern, err), err


def test_fig3b_checks_the_dense_cap_before_writing(tmp_path, monkeypatch, capsys):
    # the u=2 draws need the dense positivity check; the u=0 draws used to
    # be written before the u=2 ones failed
    monkeypatch.setenv("LMEM_DENSE_LIMIT", "3")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, experiment="fig3b", n_draws=2, transverse_values=[0.0, 2.0])))
    assert main(["run", str(cfg_path)]) == 2
    _assert_usage_error(capsys, r"physicality check of the u=2 trajectory at n_sites=4: .*; reduce n_sites$")
    assert list((tmp_path / "out").glob("*.csv")) == []


@pytest.mark.parametrize(
    "samples,limit,expected",
    [(5, None, [[32] * 3, [125] * 3]), (301, 3 * 2 ** 20, [[32] * 3, [125], [125], [125]])],
    ids=["one-batch-per-u", "one-draw-per-batch"],
)
def test_fig3b_propagates_one_batch_per_call(tmp_path, monkeypatch, samples, limit, expected):
    # at N=4 a u=0 draw runs on 32 basis states and a u=2 draw on 125, whose
    # generator holds 701 stored entries, so three draws of each u fit one
    # batch of at most CHUNK_ELEMENTS entries. Over 301 samples (ten distinct
    # intervals) a u=2 draw needs ~0.7 MB, and ~1.25 MB more for its step
    # matrices: under a 3 MiB limit the u=2 draws run one per batch
    import lmem.dynamics

    if limit is not None:
        monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: limit)
    calls = []
    for path in ("steps", "vectors"):
        kernel = getattr(lmem.dynamics, f"_propagate_by_{path}")

        def spy(gen, *args, kernel=kernel):
            calls.append(list(gen.sizes))
            return kernel(gen, *args)

        monkeypatch.setattr(lmem.dynamics, f"_propagate_by_{path}", spy)
    overrides = {"experiment": "fig3b", "n_draws": 3, "time_grid": {"t_max": 1.0, "n_samples": samples}}
    _run(tmp_path, overrides)
    assert calls == expected
    assert len(list((tmp_path / "out").glob("fig3b_u*_draw*.csv"))) == 6


@pytest.mark.parametrize("n,batches", [(4, 1), (5, 2)])
def test_fig3b_checks_share_one_dense_layout_per_batch(tmp_path, monkeypatch, n, batches):
    # ten u=2 draws form one batch at N=4 and two at N=5; they take the dense
    # positivity path, and the draws of a batch share their block, so their
    # checks build the index tables once per batch, each report as its own
    import lmem.cli
    import lmem.dynamics
    import lmem.fock
    from lmem.dynamics import physicality_report

    made, bits, checked = [], [], []
    layout, pauli_bits, reports = lmem.dynamics._DenseLayout, lmem.fock._pauli_bits, lmem.cli.physicality_reports

    class Counted(layout):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    def spy(batch):
        checked.append((batch, reports(batch)))
        return checked[-1][1]

    monkeypatch.setattr(lmem.dynamics, "_DenseLayout", Counted)
    monkeypatch.setattr(lmem.fock, "_pauli_bits", lambda *args: bits.append(1) or pauli_bits(*args))
    monkeypatch.setattr(lmem.cli, "physicality_reports", spy)
    _run(tmp_path, {"experiment": "fig3b", "model": base_model(n), "time_grid": {"t_max": 5.0, "n_samples": 21},
                    "n_draws": 10, "transverse_values": [2.0]})
    assert len(checked) == len(made) == len(bits) == batches
    monkeypatch.undo()
    assert sum(len(batch) for batch, _ in checked) == 10
    for batch, got in checked:
        assert got == [physicality_report(res) for res in batch]  # bit for bit


@pytest.mark.parametrize(
    "overrides,expected",
    [
        ({}, [("steps", 1, 22), ("steps", 1, 26)]),
        (PURITY_N4, [("steps", 1, 10)]),
        ({"experiment": "fig3b", "n_draws": 2, "transverse_values": [0.0, 2.0]}, [("steps", 2, 32), ("vectors", 2, 125)]),
    ],
    ids=["fig3a", "fig4-purity", "fig3b"],
)
def test_small_blocks_step_by_matrices(tmp_path, monkeypatch, overrides, expected):
    # (path, runs, block) of each batch: fig3a, fig4-purity and fig3b's u=0
    # draws step by one matrix per interval, fig3b's u=2 draws by vectors
    import lmem.dynamics

    calls = []
    for path in ("steps", "vectors"):
        kernel = getattr(lmem.dynamics, f"_propagate_by_{path}")

        def spy(gen, *args, path=path, kernel=kernel):
            calls.append((path, len(gen.sizes), gen.sizes[0]))
            return kernel(gen, *args)

        monkeypatch.setattr(lmem.dynamics, f"_propagate_by_{path}", spy)
    _run(tmp_path, overrides)
    assert calls == expected


_SCAN_RUNS = {"fig3a": {}, "fig3b": {"experiment": "fig3b", "n_draws": 2, "transverse_values": [0.0, 2.0]},
              "fig4-purity": PURITY_N4}


@pytest.mark.parametrize(
    "name,n", [(name, n) for name in _SCAN_RUNS for n in (4, 5, 6) if name != "fig3a" or n % 2 == 0]
)
def test_runs_scan_no_full_index_range(tmp_path, monkeypatch, name, n):
    # a run's block is the closure of its initial state's words under the
    # generator, so no run path lists all 4^N basis indices (fig3a takes
    # even N only)
    overrides = _SCAN_RUNS[name]
    import lmem.fock

    index_range = lmem.fock._index_range

    def guarded(n_modes):
        if n_modes == 2 * n:
            raise AssertionError("the run path built the 4^N index range")
        return index_range(n_modes)

    modules = [m for k, m in sys.modules.items() if k == "lmem" or k.startswith("lmem.")]
    bound = [m for m in modules if getattr(m, "_index_range", None) is index_range]
    assert lmem.fock in bound
    for module in bound:
        monkeypatch.setattr(module, "_index_range", guarded)
    model = _purity_model(n) if name == "fig4-purity" else base_model(n)
    _run(tmp_path, {**overrides, "model": model})


@pytest.mark.parametrize("command", ["run", "verify"])
def test_bad_config_exits_with_usage_status(tmp_path, capsys, command):
    # a ConfigError used to escape main as a traceback with exit status 1,
    # the status of a failed oracle check
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, experiment="oracle-suite", seed=-1)))
    assert main([command, str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    _assert_usage_error(capsys, r"seed must be >= 0, got seed=-1")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "overrides, pattern",
    [
        (
            {"experiment": "fig4-spectrum", "sector": "+-+",
             "gamma_scan": {"gamma_min": -1.0, "gamma_max": 2.0, "n_points": 4}},
            r"gamma_scan\.gamma_min must be >= 0, got gamma_scan\.gamma_min=-1\.0",
        ),
        ({"model": {"n_sites": 1}}, r"model: n_sites must be >= 2, got n_sites=1"),
        ({"zeta": float("nan")}, r"zeta must lie in \[-1, 1\], got zeta=nan"),
        ({"zeta": 0.0}, r"fig3a needs a nonzero zeta, got zeta=0\.0"),
        (
            {"model": {**base_model(4), "couplings": [1.0, float("nan"), 1.0]}},
            r"model: couplings must be finite, got couplings=\[1\.0, nan, 1\.0\]",
        ),
        (
            {"experiment": "fig3b", "n_draws": 1, "transverse_values": [0.0, float("inf")]},
            r"transverse_values must be finite, got transverse_values=inf",
        ),
        ({"model": {**base_model(4), "n_sites": "4"}}, r"model: n_sites must be an integer, got n_sites='4'$"),
        ({"seed": "x"}, r"seed must be an integer, got seed='x'$"),
    ],
    ids=["gamma_min<0", "n_sites=1", "zeta=nan", "zeta=0", "couplings=nan", "transverse=inf", "n_sites=str", "seed=str"],
)
def test_bad_setting_is_a_usage_error(tmp_path, capsys, overrides, pattern):
    # each used to end in a traceback with exit status 1: a negative
    # gamma_min partway through the scan naming dephasing_rates, n_sites=1
    # from ModelParams, zeta=nan in edge.validate, zeta=0 dividing by zero,
    # the non-finite values inside the generator or the eigensolver, a
    # string n_sites in a comparison (TypeError) and a string seed in int()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, **overrides)))
    assert main(["run", str(cfg_path)]) == 2
    _assert_usage_error(capsys, pattern)
    assert not (tmp_path / "out").exists()


def test_bad_config_exit_status_from_the_command_line(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, seed=-1)))
    out = subprocess.run(
        [sys.executable, "-m", "lmem.cli", "run", str(cfg_path)], capture_output=True, text=True, env=_env()
    )
    assert out.returncode == 2
    assert out.stderr == "lmem: error: seed must be >= 0, got seed=-1\n"


def test_fig3b_u_split(tmp_path):
    data = make_config(
        tmp_path,
        experiment="fig3b",
        time_grid={"t_max": 3.0, "n_samples": 7},
        n_draws=2,
    )
    cfg = ExperimentConfig(data)
    results = run_experiment(cfg, jobs=2)
    for entry in results["draws"]["u=0"]:
        assert entry["max_drift"] < 1e-6
    for entry in results["draws"]["u=2"]:
        assert entry["max_drift"] > 1e-3
    assert (tmp_path / "out" / "fig3b_summary.csv").exists()
    assert (tmp_path / "out" / "fig3b_u0_draw01.csv").exists()


def test_fig3b_seed_stream_deterministic(tmp_path):
    data = make_config(
        tmp_path, experiment="fig3b", time_grid={"t_max": 1.0, "n_samples": 3}, n_draws=2
    )
    r1 = run_experiment(ExperimentConfig({**data, "output_dir": str(tmp_path / "p")}), jobs=1)
    r2 = run_experiment(ExperimentConfig({**data, "output_dir": str(tmp_path / "q")}), jobs=2)
    assert r1["draws"] == r2["draws"]


def test_fig4_purity_threshold(tmp_path):
    data = make_config(
        tmp_path,
        experiment="fig4-purity",
        model={
            "n_sites": 4,
            "couplings": [2.0] * 3,
            "dephasing_rates": [3.0] * 4,
        },
        time_grid={"t_max": 10.0, "n_samples": 11},
        zeta=0.4,
        edge_state_amplitude=0.3,
    )
    results = run_experiment(ExperimentConfig(data))
    assert results["threshold_gamma_t_5pct"] is not None
    assert results["rel_error_initial"] > 0.05
    assert results["rel_error_final"] < 0.05


def test_fig4_spectrum_flags_ep(tmp_path):
    data = make_config(
        tmp_path,
        experiment="fig4-spectrum",
        model={
            "n_sites": 4,
            "couplings": [2.0] * 3,
            "dephasing_rates": [1.0] * 4,
        },
        gamma_scan={"gamma_min": 1.0, "gamma_max": 3.0, "n_points": 21},
        sector="+-+",
    )
    results = run_experiment(ExperimentConfig(data))
    assert results["block_dimension"] == 32
    assert any(abs(g - 2.0) <= results["grid_step"] for g in results["flagged_gammas"])


def test_sector_census(tmp_path):
    data = make_config(tmp_path, experiment="sector-census", with_spectra=True)
    results = run_experiment(ExperimentConfig(data))
    assert results["n_sectors"] == 8
    text = (tmp_path / "out" / "sector_census.csv").read_text().splitlines()
    assert text[0] == "label,dimension,n_segments,segments"
    assert len(text) == 9


def test_fig4_spectrum_rejects_perturbed_model(tmp_path):
    model = {**base_model(4), "bond_dissipation": [0.5, 0.0, 0.0]}
    data = make_config(tmp_path, experiment="fig4-spectrum", model=model, sector="+-+")
    with pytest.raises(ConfigError, match="field_b, transverse_u and bond_dissipation"):
        run_experiment(ExperimentConfig(data))
    assert not (tmp_path / "out" / "fig4_spectrum.csv").exists()


def test_sector_census_spectra_reject_perturbed_model(tmp_path):
    model = {**base_model(4), "bond_dissipation": [0.5, 0.0, 0.0]}
    data = make_config(tmp_path, experiment="sector-census", model=model, with_spectra=True)
    with pytest.raises(ConfigError, match="field_b, transverse_u and bond_dissipation.*with_spectra"):
        run_experiment(ExperimentConfig(data))
    assert not (tmp_path / "out" / "sector_census.csv").exists()


class TestMain:
    def test_run_command(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path)))
        assert main(["run", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert '"experiment": "fig3a"' in out

    def test_verify_default(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path / "v")])
        assert code == 0
        out = capsys.readouterr().out
        assert "[pass] kitaev-sector-reconstruction" in out
        report = json.loads((tmp_path / "v" / "oracle_report.json").read_text())
        assert report["all_passed"]

    def test_verify_detects_sign_mutation(self, tmp_path, capsys):
        code = main(["verify", "--out", str(tmp_path / "m"), "--debug-flip-kappa-sign"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] kitaev-sector-reconstruction" in out

    def test_out_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path)))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "fig3a_product.csv").exists()


def test_dense_limit_env(tmp_path, monkeypatch):
    from lmem.pauli import PauliString, SizeLimitError

    monkeypatch.setenv("LMEM_DENSE_LIMIT", "2")
    with pytest.raises(SizeLimitError):
        PauliString.identity(3).to_matrix()
    monkeypatch.setenv("LMEM_DENSE_LIMIT", "3")
    PauliString.identity(3).to_matrix()


def _src_dir() -> str:
    import lmem

    return str(Path(lmem.__file__).resolve().parents[1])


def _env() -> dict:
    """The environment of a child Python that imports this checkout's lmem."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_src_dir(), os.environ.get("PYTHONPATH")]))}


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "user,expected",
    [({}, ["1", None, None]), ({"OMP_NUM_THREADS": "2"}, [None, "2", None])],
    ids=["default", "user-set"],
)
def test_import_sets_one_blas_thread_unless_the_user_chose(user, expected):
    env = {k: v for k, v in _env().items() if k not in _THREAD_VARIABLES}
    code = f"import os, lmem; print([os.environ.get(v) for v in {_THREAD_VARIABLES!r}])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**env, **user})
    assert out.stdout.strip() == repr(expected)


# modules no experiment uses: scipy.integrate would add ~0.3 s of imports,
# scipy.sparse.csgraph ~3 MB of peak RSS, and scipy.spatial, with the
# scipy.linalg and scipy.special it loads, ~0.2 s and ~16 MB
UNUSED_SCIPY = ("scipy.integrate", "scipy.sparse.csgraph", "scipy.spatial", "scipy.linalg", "scipy.special")


def test_import_does_not_load_scipy_integrate():
    # the run path imports what it needs at load time, and nothing more
    code = f"import sys, lmem, lmem.cli; print([m for m in {UNUSED_SCIPY!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_env())
    assert out.stdout.strip() == "[]"


def test_runs_do_not_load_unused_scipy(tmp_path):
    # every experiment at N=4 and `lmem verify`, one after another in one
    # process; a module imported lazily on some path stays in sys.modules
    configs = [
        make_config(tmp_path),
        make_config(tmp_path, experiment="fig3b", n_draws=1),
        make_config(tmp_path, **PURITY_N4),
        make_config(tmp_path, **SPECTRUM_N4),
        make_config(tmp_path, **CENSUS_N4),
        {"experiment": "oracle-suite", "max_n_sites": 4, "seed": 0},
    ]
    argvs = []
    for cfg in configs:
        path = tmp_path / f"{cfg['experiment']}.json"
        path.write_text(json.dumps(cfg))
        argvs.append(["run", str(path), "--out", str(tmp_path / cfg["experiment"])])
    argvs.append(["verify", "--out", str(tmp_path / "verify")])
    code = (
        "import sys\n"
        "from lmem.cli import main\n"
        f"assert [main(argv) for argv in {argvs!r}] == [0] * {len(argvs)}\n"
        f"print([m for m in {UNUSED_SCIPY!r} if m in sys.modules])\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_env())
    assert out.stdout.strip().splitlines()[-1] == "[]"


def _forbid(monkeypatch, originals, what) -> int:
    """Make every lmem.* module binding of each original function raise; return their count."""

    def forbidden(*args, **kwargs):
        raise AssertionError(f"the experiment run path {what}")

    count = 0
    for module in [m for k, m in sys.modules.items() if k == "lmem" or k.startswith("lmem.")]:
        for attr, value in list(vars(module).items()):
            if any(value is original for original in originals):
                monkeypatch.setattr(module, attr, forbidden)
                count += 1
    return count


def _run(tmp_path, overrides):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, **overrides)))
    assert main(["run", str(cfg_path)]) == 0


@pytest.mark.parametrize("overrides", [{}, PURITY_N4], ids=["fig3a", "fig4-purity"])
def test_run_path_builds_no_kappa_cascade(tmp_path, monkeypatch, overrides):
    # the edge operators of the experiments are direct signed permutations;
    # the cascaded Liouville-Majorana family is for the oracle suite only
    import lmem.kappa

    _forbid(monkeypatch, [lmem.kappa.kappa_all, lmem.kappa._spin_layers], "built the kappa cascade")
    _run(tmp_path, overrides)


@pytest.mark.parametrize("overrides", [SPECTRUM_N4, CENSUS_N4], ids=["fig4-spectrum", "sector-census"])
def test_run_path_builds_no_generator_or_dense_block(tmp_path, monkeypatch, overrides):
    # sector spectra come from the broken-chain segments; the 4^N generator
    # and its dense sector restriction are oracles for the tests and verify
    import lmem.liouvillian
    import lmem.sectors

    originals = [lmem.liouvillian.build_liouvillian_thirdq, lmem.sectors.restrict_liouvillian]
    _forbid(monkeypatch, originals, "built the generator or a dense block")
    _run(tmp_path, overrides)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"experiment": "fig3b", "n_draws": 2}, PURITY_N4],
    ids=["fig3a", "fig3b", "fig4-purity"],
)
def test_run_path_uses_direct_generator_and_symbolic_states(tmp_path, monkeypatch, overrides):
    # every evolution uses the direct generator, and the initial states are
    # vectorized symbolically; the third-quantized form (built from the
    # ladder matrices) and the dense vectorization are oracles
    import lmem.fock
    import lmem.liouvillian

    originals = [
        lmem.liouvillian.build_liouvillian_thirdq,
        lmem.fock.c_matrix,
        lmem.fock.vectorize,
    ]
    _forbid(monkeypatch, originals, "built the third-quantized generator or vectorized a dense state")
    _run(tmp_path, overrides)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"experiment": "fig3b", "n_draws": 2}, PURITY_N4],
    ids=["fig3a", "fig3b", "fig4-purity"],
)
def test_run_path_builds_no_kronecker_matrix(tmp_path, monkeypatch, overrides):
    # initial states are checked on their Liouville vectors; the Kronecker
    # builds of Pauli words and operator sums are oracles
    def forbidden(self):
        raise AssertionError("the run path built a Kronecker matrix")

    monkeypatch.setattr(PauliString, "to_matrix", forbidden)
    monkeypatch.setattr(OperatorSum, "to_matrix", forbidden)
    _run(tmp_path, overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"experiment": "fig3b", "n_draws": 2, "transverse_values": [0.0]},
        PURITY_N4,
        {"experiment": "fig3b", "n_draws": 2, "transverse_values": [2.0]},
    ],
    ids=["fig3a", "fig3b-u0", "fig4-purity", "fig3b-u2"],
)
def test_run_path_keeps_to_the_occupied_block(tmp_path, monkeypatch, overrides):
    # every evolution, with a transverse field too, is assembled on its
    # block by the generator table, never the direct build, and no reader
    # of the result rebuilds the 4^N amplitude array
    import lmem.dynamics
    import lmem.liouvillian

    table = lmem.liouvillian.generator_table
    bases = []

    def block_table_only(hamiltonian, jumps, n_sites, cols):
        assert len(cols) < 4 ** n_sites, "the run path built the 4^N generator"
        bases.append(len(cols))
        return table(hamiltonian, jumps, n_sites, cols)

    def forbidden(self):
        raise AssertionError("the run path read EvolutionResult.amplitudes")

    _forbid(monkeypatch, [lmem.liouvillian.build_liouvillian_direct], "built the direct generator")
    monkeypatch.setattr(lmem.dynamics, "generator_table", block_table_only)
    monkeypatch.setattr(lmem.dynamics.EvolutionResult, "amplitudes", property(forbidden))
    _run(tmp_path, overrides)
    assert bases


def test_fig3b_converts_its_words_once_per_run(tmp_path, monkeypatch):
    # the draws share the model's words, the observables and the initial
    # state: no Pauli word is converted to its Majorana monomial per draw
    import lmem.pauli

    convert = lmem.pauli.spin_to_majorana
    counts = []
    for draws in (2, 6):
        calls = []
        monkeypatch.setattr(lmem.pauli, "spin_to_majorana", lambda word: calls.append(word) or convert(word))
        run_dir = tmp_path / f"draws{draws}"
        run_dir.mkdir()
        _run(run_dir, {"experiment": "fig3b", "n_draws": draws})
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize(
    "overrides",
    [{}, {"experiment": "fig3b", "n_draws": 2, "transverse_values": [0.0]}, PURITY_N4],
    ids=["fig3a", "fig3b", "fig4-purity"],
)
def test_operator_vector_beyond_the_budget_names_n_sites(tmp_path, monkeypatch, capsys, overrides):
    # the 4^N amplitudes of an operator, 4 kB at N=4, are checked against
    # the memory limit before they are allocated
    import lmem.fock

    monkeypatch.setattr(lmem.fock, "_memory_limit", lambda: 16 * 4 ** 4 - 1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, **overrides)))
    assert main(["run", str(cfg_path)]) == 2
    _assert_usage_error(capsys, r"amplitudes of an operator at n_sites=4 .*; reduce n_sites$")
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize(
    "limit,pattern",
    [(7 * 10 ** 4, r"n_sites=4 over 5 samples.*; reduce n_sites$"), (2 ** 20, r"; reduce time_grid\.n_samples$")],
)
def test_full_space_budget_names_setting(tmp_path, monkeypatch, capsys, limit, pattern):
    # at N=4 a u=2 draw runs on a block of 125 basis states, with a generator
    # estimate of 80 kB, beyond 7 x 10^4 bytes; 601 samples push one draw's
    # trajectory past 1 MiB. Draws that fit one at a time run in smaller
    # batches, so only a draw that does not fit alone raises
    import lmem.dynamics

    monkeypatch.setattr(lmem.dynamics, "_memory_limit", lambda: limit)
    samples, draws = (5, 2) if limit < 2 ** 20 else (601, 1)
    overrides = {"experiment": "fig3b", "n_draws": draws, "transverse_values": [2.0],
                 "time_grid": {"t_max": 1.0, "n_samples": samples}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, **overrides)))
    assert main(["run", str(cfg_path)]) == 2
    _assert_usage_error(capsys, pattern)


@pytest.mark.parametrize("overrides", [PURITY_N4], ids=["fig4-purity"])
def test_run_path_positivity_stops_at_cholesky(tmp_path, monkeypatch, overrides):
    # every initial state and trajectory sample of these runs is positive
    # definite, so Cholesky accepts it and the eigvalsh fallback never runs
    assert _forbid(monkeypatch, [np.linalg.eigvalsh], "reached the eigvalsh fallback") > 0
    _run(tmp_path, overrides)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"experiment": "fig3b", "n_draws": 2, "transverse_values": [0.0]}],
    ids=["fig3a", "fig3b-u0"],
)
def test_degree_path_positivity_builds_no_dense_block(tmp_path, monkeypatch, overrides):
    # the initial states and trajectories of these runs stay on Majorana
    # degrees 0, 2, 2N - 2 and 2N, so positivity comes from the quadratic
    # form: no dense block is rebuilt and none reaches Cholesky (nor its
    # eigvalsh fallback, which runs only after Cholesky)
    import lmem.fock

    originals = [lmem.fock.dense_blocks, np.linalg.cholesky]
    assert _forbid(monkeypatch, originals, "built or factorized a dense block") > 0
    _run(tmp_path, overrides)


def _purity_model(n):
    return {"n_sites": n, "couplings": [2.0] * (n - 1), "dephasing_rates": [3.0] * n}


def test_fig4_purity_checks_positivity_beyond_the_dense_cap(tmp_path, monkeypatch):
    # from N=5 on, the initial state and the trajectory touch 5 modes once
    # folded, so positivity comes from 3-site chains: the cap of 3 sites
    # binds no check (at N=4 every mode is touched, as the cap test shows)
    monkeypatch.setenv("LMEM_DENSE_LIMIT", "3")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(tmp_path, **{**PURITY_N4, "model": _purity_model(5)})))
    assert main(["run", str(cfg_path)]) == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["results"]["physicality"]["max_negative_eigenvalue"] == 0.0


def test_fig4_purity_positivity_builds_no_dense_parity_block(tmp_path, monkeypatch):
    import lmem.dynamics

    assert _forbid(monkeypatch, [lmem.dynamics._dense_positivity], "checked a dense parity block") > 0
    _run(tmp_path, {**PURITY_N4, "model": _purity_model(7)})


@pytest.mark.parametrize("n", [4, 5, 6])
def test_fig4_purity_columns_match_per_state_observables(tmp_path, n):
    from lmem.dynamics import evolve
    from lmem.edge import approx_purity_longtime, kappa_correlation
    from lmem.fock import vector_purity

    model = {"n_sites": n, "couplings": [2.0] * (n - 1), "dephasing_rates": [3.0] * n}
    cfg = ExperimentConfig(
        make_config(tmp_path, **{**PURITY_N4, "model": model, "time_grid": {"t_max": 4.0, "n_samples": 9}})
    )
    run_experiment(cfg)
    table = np.loadtxt(tmp_path / "out" / "fig4_purity.csv", delimiter=",", skiprows=1)
    rho0 = vectorize_operator(edge_occupied_state(n, cfg.zeta, cfg.edge_state_amplitude))
    res = evolve(rho0, cfg.model, cfg.time_grid())
    for k, (t, exact, approx, rel, corr) in enumerate(table):
        state = res.amplitudes[k]
        assert t == res.times[k]
        assert exact == pytest.approx(vector_purity(state, n), rel=0, abs=1e-13)
        assert approx == pytest.approx(approx_purity_longtime(state, n), rel=0, abs=1e-13)
        assert corr == pytest.approx(kappa_correlation(state, n), rel=0, abs=1e-13)
        assert rel == abs(approx - exact) / exact


def test_benchmark_entry_points_resolve():
    # perfbench wraps these names by reference and its child process calls
    # the cli ones; a rename would break the traced benchmark silently
    import importlib.util

    import lmem.cli
    import lmem.sectors

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"lmem.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"lmem.{layer}.{name}"
    assert set(tracer.OBSERVERS) <= tracer.TRACED_SET
    assert callable(lmem.sectors.sector_eigenvalues)
    assert callable(lmem.cli.ExperimentConfig.from_file)
    assert callable(lmem.cli.main)
