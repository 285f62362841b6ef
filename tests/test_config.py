"""Config parsing, defaults, validation and grid expansion."""

import re

import pytest

from cdotto.cli import main
from cdotto.config import (
    PRESETS,
    config_digest,
    expand_grid,
    parse_config_text,
    resolve_blocks,
)
from cdotto.errors import ConfigError


class TestParse:
    def test_basic_keys(self):
        raw = parse_config_text("N = 2,3\np = 0,1\ntau = 1,2\nTc = 0.1\n")
        assert raw == {"N": [2, 3], "p": [0, 1], "tau": [1.0, 2.0], "Tc": 0.1}

    def test_comments_and_blanks(self):
        raw = parse_config_text("# header\n\nN = 2  # two sites\np = 0\n")
        assert raw == {"N": [2], "p": [0]}

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*frobnicate"):
            parse_config_text("N = 2\nfrobnicate = 1\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("N = 2\nN = 3\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("N = two\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("N 2\n")

    @pytest.mark.parametrize("line,key", [
        ("Tc = nan", "Tc"),
        ("tau = 1, inf", "tau"),
        ("tau1 = -inf", "tau1"),
        ("h_i = 0.2 nan 0.2", "h_i"),
    ])
    def test_non_finite_values_name_line_and_key(self, line, key):
        with pytest.raises(ConfigError, match=f"line 3: key '{key}' expects finite numbers"):
            parse_config_text(f"N = 3\np = 0\n{line}\n")

    @pytest.mark.parametrize("line,message", [
        ("Tc = cold", "key 'Tc' expects numbers"),
        ("N = ,", "key 'N' is empty"),
        ("tau =", "key 'tau' is empty"),
        ("Tc = 0.1, 0.2", "key 'Tc' expects a single number"),
        ("h_i =", "key 'h_i' is empty"),
    ])
    def test_malformed_values_name_line_and_key(self, line, message):
        with pytest.raises(ConfigError, match=re.escape(f"line 3: {message}")):
            parse_config_text(f"p = 0\nb_f = 0.5\n{line}\n")

    def test_field_vector_parsing(self):
        raw = parse_config_text("N = 3\np = 1\nh_i = 0.1 0.2 0.3\n")
        assert raw["h_i"] == [0.1, 0.2, 0.3]


class TestExpand:
    def test_missing_required_keys_are_named(self):
        with pytest.raises(ConfigError, match="missing required keys: N, p"):
            expand_grid({})

    def test_defaults_fill_reference_point(self):
        (cfg,) = expand_grid({"N": [2], "p": [1]})
        assert cfg.Tc == 0.2 and cfg.Th == 0.4
        assert cfg.tau1 == 1.0 and cfg.tau2 == 0.1 and cfg.tau4 == 0.1
        assert cfg.nu == 0.01
        assert cfg.params.h_i.tolist() == [0.2, 0.2]
        assert cfg.params.b_f.tolist() == [0.5, 0.5]
        assert cfg.params.j_f.tolist() == [0.1]

    def test_grid_expansion_order(self):
        configs = expand_grid({"N": [1, 2], "p": [0, 1], "tau": [1.0, 2.0]})
        key = [(c.n_sites, c.p, c.tau1) for c in configs]
        assert key == [
            (1, 0, 1.0), (1, 0, 2.0), (1, 1, 1.0), (1, 1, 2.0),
            (2, 0, 1.0), (2, 0, 2.0), (2, 1, 1.0), (2, 1, 2.0),
        ]

    def test_temperature_ordering_rejected(self):
        with pytest.raises(ConfigError, match="Tc < Th"):
            expand_grid({"N": [1], "p": [0], "Tc": 0.4, "Th": 0.2})

    @pytest.mark.parametrize("raw,message", [
        ({"nu": -1.0}, "nu must be >= 0, got -1.0"),
        ({"p": [-1]}, "p must be >= 0, got -1"),
        ({"tau": [0.0]}, "tau1 must be positive"),
        ({"tau2": -0.1}, "tau2 must be positive"),
    ], ids=["nu", "p", "tau", "tau2"])
    def test_cycle_domain_errors_are_config_errors(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            expand_grid({"N": [1], "p": [0], **raw})

    def test_tau_exclusivity(self):
        with pytest.raises(ConfigError, match="not both"):
            expand_grid({"N": [1], "p": [0], "tau": [1.0], "tau1": 1.0, "tau3": 1.0})
        with pytest.raises(ConfigError, match="together"):
            expand_grid({"N": [1], "p": [0], "tau1": 1.0})

    def test_asymmetric_strokes(self):
        (cfg,) = expand_grid({"N": [1], "p": [0], "tau1": 2.0, "tau3": 3.0})
        assert cfg.tau1 == 2.0 and cfg.tau3 == 3.0

    def test_per_site_fields(self):
        (cfg,) = expand_grid({"N": [3], "p": [1], "h_i": [0.1, 0.2, 0.3],
                              "J_f": [0.1, 0.2, 0.3]})
        assert cfg.params.h_i.tolist() == [0.1, 0.2, 0.3]
        assert cfg.params.j_f.tolist() == [0.1, 0.2, 0.3]

    def test_vector_length_checked(self):
        with pytest.raises(ConfigError, match="expected 3"):
            expand_grid({"N": [3], "p": [1], "h_i": [0.1, 0.2]})

    def test_vector_requires_single_n(self):
        with pytest.raises(ConfigError, match="single N"):
            expand_grid({"N": [2, 3], "p": [1], "h_i": [0.1, 0.2]})

    def test_order_above_n_is_accepted(self):
        configs = expand_grid({"N": [2], "p": [4]})
        assert configs[0].p == 4 and configs[0].effective_p == 2

    def test_invalid_n(self):
        with pytest.raises(ConfigError, match="N must be"):
            expand_grid({"N": [0], "p": [0]})


class TestLoadConfig:
    """A config file as ``cdotto run --config`` reads it."""

    def test_reads_and_expands(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("N = 1,2\np = 0\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--workers", "1",
                     "--steps-per-unit-time", "400"]) == 0
        rows = (out / "results.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2"]

    def test_negative_nu_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nu.cfg"
        path.write_text("N = 1\np = 1\nnu = -1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "error: control cost prefactor nu must be >= 0" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_empty_file_names_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "missing required keys: N, p" in capsys.readouterr().err


class TestPresets:
    def test_all_presets_resolve(self):
        sizes = {}
        for name, blocks in PRESETS.items():
            configs = resolve_blocks([parse_config_text(b) for b in blocks])
            sizes[name] = len(configs)
        assert sizes["fig2"] == 25
        assert sizes["fig3"] == 20
        assert sizes["fig4"] == 48
        assert sizes["fig5"] == 45

    def test_fig2_grid_content(self):
        configs = resolve_blocks([parse_config_text(b) for b in PRESETS["fig2"]])
        assert {c.n_sites for c in configs} == {2, 3, 4, 5, 6}
        assert {c.p for c in configs} == {0, 1, 2, 3, 4}
        assert all(c.tau1 == 40.0 and c.tau3 == 40.0 for c in configs)

    def test_fig5_unions_two_grids(self):
        configs = resolve_blocks([parse_config_text(b) for b in PRESETS["fig5"]])
        taus = {c.tau1 for c in configs}
        assert 1.0 in taus and 40.0 in taus


class TestDigest:
    def test_digest_stable(self):
        raw = parse_config_text("N = 2\np = 1\n")
        opts = {"steps_per_unit_time": 2000.0}
        assert config_digest([raw], opts) == config_digest([raw], opts)

    def test_digest_sensitive_to_values(self):
        a = config_digest([parse_config_text("N = 2\np = 1\n")], {})
        b = config_digest([parse_config_text("N = 2\np = 2\n")], {})
        assert a != b

    def test_digest_sensitive_to_options(self):
        raw = parse_config_text("N = 2\np = 1\n")
        assert config_digest([raw], {"s": 1}) != config_digest([raw], {"s": 2})
