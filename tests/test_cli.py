import json
import math

import pytest

from hebsim import cli, mdp
from hebsim.cli import main
from hebsim.presets import PRESETS, get_preset


def run_cli(args, capsys=None):
    code = main(args)
    return code


class TestCosts:
    def test_values_printed(self, capsys):
        assert main(["costs", "--rho", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "attack_cost_refunded=1" in out
        assert "attack_cost_sabotage=0.5" in out
        assert "external_expense=0.5" in out

    def test_zero_rho_nakamoto_parity(self, capsys):
        assert main(["costs", "--rho", "0"]) == 0
        out = capsys.readouterr().out
        assert "attack_cost_sabotage=1" in out
        assert "external_expense=1" in out

    def test_csv_out(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["costs", "--rho", "0.25", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("rho,")
        assert ",0.75,0.75" in text.splitlines()[1]


class TestEpsilonCmd:
    def test_table2_preset(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        assert main(["epsilon", "--preset", "table2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "b1,b2,b3,b4,b5,epsilon"
        eps = [round(float(line.split(",")[-1]), 4) for line in lines[1:]]
        assert eps == [0.0029, 0.0025, 0.0015, 0.0007, 0.0]
        assert lines[1].split(",")[2] == "-"  # absent miners as hyphens

    def test_custom_dist(self, tmp_path, capsys):
        out = tmp_path / "eps.csv"
        code = main(
            ["epsilon", "--dist", "0.3,0.7", "--epoch-len", "1000",
             "--factor", "20", "--out", str(out)]
        )
        assert code == 0
        val = float(out.read_text().strip().splitlines()[-1].split(",")[-1])
        assert 0 < val < 0.01

    def test_bad_shares_exit_code(self, capsys):
        code = main(["epsilon", "--dist", "0.5,0.6", "--epoch-len", "100",
                     "--factor", "20"])
        assert code == 2
        err = capsys.readouterr().err
        assert "shares" in err

    def test_unknown_preset(self, capsys):
        assert main(["epsilon", "--preset", "nope"]) == 2

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--epoch-len", "0"], "epoch_len"),
            (["--factor", "0"], "factor"),
            (["--epoch-len", "0", "--factor", "0"], "epoch_len"),
            (["--factor", "nan"], "factor"),
            (["--factor", "inf"], "factor"),
        ],
    )
    def test_zero_epoch_len_or_factor_rejected(self, flags, field, tmp_path, capsys):
        out = tmp_path / "eps.csv"
        code = main(["epsilon", "--dist", "0.3,0.7", *flags, "--out", str(out)])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestConfigFields:
    @pytest.mark.parametrize(
        "command, cfg, field",
        [
            ("mdp", {"shares": [0.2], "rhos": [0.0], "epoch_len": 3, "phi_lo": None},
             "phi_lo"),
            ("mdp", {"shares": [0.2], "rhos": [0.0], "epoch_len": 3, "phi_hi": "x"},
             "phi_hi"),
            ("epsilon", {"distributions": [[0.5, 0.5]], "factor": None}, "factor"),
            ("epsilon", {"distributions": [[0.5, 0.5]], "epoch_len": None},
             "epoch_len"),
            ("curves", {"which": "fig2a", "shares": [0.1], "epoch_lens": [200],
                        "factor": None}, "factor"),
            ("curves", {"which": "fig2a"}, "shares"),
            ("curves", {"which": "fig2b", "shares": [0.1], "factors": [2]},
             "epoch_len"),
            ("curves", {"which": "fig4"}, "rhos"),
            ("curves", {"which": "fig5", "shares": [0.1]}, "factors"),
            # a null element of a list-valued field
            ("curves", {"which": "fig2a", "shares": [None], "epoch_lens": [200],
                        "factor": 20}, "shares"),
            ("epsilon", {"distributions": [[0.5, None]]}, "distributions"),
            ("mdp", {"shares": [None], "rhos": [0.0], "epoch_len": 3}, "shares"),
        ],
    )
    def test_null_or_missing_field_cites_field(
        self, command, cfg, field, tmp_path, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()


class TestCurvesCmd:
    def test_fig4_zero_rho_row(self, tmp_path, capsys):
        out = tmp_path / "f4.csv"
        assert main(["curves", "--preset", "fig4", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rho,pow_only_bound"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == 0.5

    def test_fig5_unit_factor_rows(self, tmp_path, capsys):
        out = tmp_path / "f5.csv"
        assert main(["curves", "--preset", "fig5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()[1:]
        unit = [l for l in lines if l.startswith("1,")]
        assert unit and all(float(l.split(",")[2]) == 1.0 for l in unit)

    def test_fig2a_increases_toward_one(self, tmp_path, capsys):
        out = tmp_path / "f2a.csv"
        assert main(["curves", "--preset", "fig2a", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        series = [float(r[2]) for r in rows if r[1] == "0.1"]
        assert series == sorted(series)
        assert series[-1] > 0.98


class TestSimulateCmd:
    def test_small_config_runs(self, tmp_path, capsys):
        cfg = {
            "protocol": "nakamoto",
            "epoch_len": 10,
            "miners": [
                {"id": "a", "share": 0.5, "strategy": "prescribed"},
                {"id": "b", "share": 0.5, "strategy": "prescribed"},
            ],
            "runs": 5,
            "seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "miner_id,mean_utility,stderr,mean_blocks,mean_weight,external_spend"
        per_run = (tmp_path / "res_runs.csv").read_text().strip().splitlines()
        assert per_run[0] == "run,miner_id,utility,blocks,weight"
        assert len(per_run) == 1 + 5 * 2

    def test_invalid_share_sum_cites_field(self, tmp_path, capsys):
        cfg = {
            "protocol": "nakamoto",
            "epoch_len": 10,
            "miners": [{"id": "a", "share": 0.6}, {"id": "b", "share": 0.6}],
            "runs": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "shares" in capsys.readouterr().err

    def test_share_sum_error_says_why(self, tmp_path, capsys):
        # the shares sum to 1 + 2.8e-17, whose float reads 1.0
        cfg = {"protocol": "nakamoto", "epoch_len": 10, "allow_fractional": True,
               "miners": [{"id": "a", "share": 1e-9}, {"id": "b", "share": 0.999999999}]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error: shares: shares must sum to 1, got " in err
        assert "642000018157000018157/642000018157000000000, off by +2.83e-17" in err

    @pytest.mark.parametrize(
        "key, field",
        [
            ("epoch_len", "epoch_len"),
            ("factor", "factor"),
            ("rho", "rho"),
            ("mint", "mint"),
            ("user_balance", "user_balance"),
            ("share", "share"),
            ("runs", "runs"),
            ("seed", "seed"),
            ("jobs", "jobs"),
        ],
    )
    def test_null_numeric_field_cites_field(self, key, field, tmp_path, capsys):
        cfg = {"protocol": "heb", "epoch_len": 10, "factor": 20, "rho": 0.5,
               "miners": [{"id": "a", "share": 1.0}], "runs": 1}
        if key == "share":
            cfg["miners"][0]["share"] = None
        else:
            cfg[key] = None
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not out.exists()

    def test_override_flags(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        cfg = dict(get_preset("bitcoin-baseline"))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        code = main(
            ["simulate", "--config", str(path), "--runs", "2", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        per_run = (out.parent / "o_runs.csv").read_text().strip().splitlines()
        assert len(per_run) == 1 + 2 * 5


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path, capsys):
        cfg = {
            "protocol": "heb",
            "epoch_len": 20,
            "factor": 20,
            "rho": 0.5,
            "miners": [
                {"id": "a", "share": 0.25, "strategy": "prescribed"},
                {"id": "b", "share": 0.75, "strategy": "prescribed"},
            ],
            "runs": 10,
            "seed": 11,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outs = []
        for name in ("x.csv", "y.csv"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_mdp_csv_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("m1.csv", "m2.csv"):
            out = tmp_path / name
            code = main(
                ["mdp", "--share", "0.2", "--rhos", "0.0", "--epoch-len", "4",
                 "--seed", "5", "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].startswith(b"rho,share,phi_min")


class TestPresetRegistry:
    def test_all_presets_well_formed(self):
        for name, cfg in PRESETS.items():
            assert "command" in cfg, name

    def test_get_preset_copies(self):
        a = get_preset("table2")
        a["epoch_len"] = 1
        assert PRESETS["table2"]["epoch_len"] == 1000


class TestPresetValues:
    def test_bitcoin_baseline_mean_utilities(self, tmp_path, capsys):
        out = tmp_path / "bb.csv"
        code = main(
            ["simulate", "--preset", "bitcoin-baseline", "--runs", "50",
             "--out", str(out)]
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        # five equal miners at share 0.2, epoch 100: utility ~ 20 each
        for row in rows:
            assert abs(float(row[1]) - 20.0) < 3 * math.sqrt(100 * 0.2 * 0.8 / 50)

    def test_heb_practical_external_spend(self, tmp_path, capsys):
        out = tmp_path / "hp.csv"
        code = main(
            ["simulate", "--preset", "heb-practical", "--runs", "2",
             "--out", str(out)]
        )
        assert code == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        total_ext = sum(float(r[5]) for r in rows)
        assert total_ext == pytest.approx(0.5 * 1000)  # (1-rho) * sum balances

    def test_mdp_programming_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("not a per-row failure")

        monkeypatch.setattr(cli, "min_factor", broken)
        with pytest.raises(TypeError, match="per-row"):
            main(["mdp", "--share", "0.2", "--rhos", "0.0", "--epoch-len", "4",
                  "--out", str(tmp_path / "m.csv")])

    @pytest.mark.parametrize("ell", ["0", "-3"])
    def test_mdp_epoch_len_outside_horizon_cap_rejected(self, ell, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(["mdp", "--share", "0.2", "--rhos", "0.0", "--epoch-len", ell,
                     "--out", str(out)])
        assert code == 2
        assert "epoch_len" in capsys.readouterr().err
        assert not out.exists()
        assert not out.with_suffix(".timing.csv").exists()

    @pytest.mark.parametrize(
        "argv, cfg",
        [
            (["--share", "0.2", "--rhos", "0.0", "--epoch-len", "8"], {}),
            # the first grid point fits the budget: still no output at all
            ([], {"shares": [0.0, 0.2], "rhos": [0.0], "epoch_len": 4, "games": 0}),
        ],
        ids=["epoch-len-8", "later-grid-point"],
    )
    def test_mdp_state_budget_is_a_config_error(
        self, argv, cfg, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(mdp, "MAX_STATES", 100)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["mdp", "--config", str(path), *argv, "--out", "m.csv"]) == 2
        err = capsys.readouterr().err
        assert "config error: epoch_len:" in err and "mdp.MAX_STATES" in err
        assert list(tmp_path.iterdir()) == [path]

    def test_mdp_ignores_a_horizon_cap_key(self, tmp_path, capsys):
        cfg = {"shares": [0.2], "rhos": [0.0], "epoch_len": 4, "games": 0}
        rows = []
        for extra in ({}, {"horizon_cap": 3}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({**cfg, **extra}))
            out = tmp_path / "m.csv"
            assert main(["mdp", "--config", str(path), "--out", str(out)]) == 0
            rows.append(out.read_text())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize(
        "bracket, field",
        [
            ({"phi_lo": 0.5}, "phi_lo"),
            ({"phi_lo": 50, "phi_hi": 2}, "phi_hi"),
            ({"phi_hi": math.inf}, "phi_hi"),  # JSON Infinity
        ],
    )
    def test_mdp_factor_bracket_rejected(
        self, bracket, field, tmp_path, capsys, monkeypatch
    ):
        def no_probe(*args, **kwargs):
            raise AssertionError("min_factor probed an invalid bracket")

        monkeypatch.setattr(mdp, "best_response", no_probe)
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"shares": [0.2], "rhos": [0.0], "epoch_len": 3, **bracket})
        )
        out = tmp_path / "m.csv"
        assert main(["mdp", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid, field",
        [
            (["--share", "1.5", "--rhos", "0"], "shares"),
            (["--share", "0.2", "--rhos", "0,1"], "rhos"),
        ],
    )
    def test_mdp_grid_out_of_range_rejected(self, grid, field, tmp_path, capsys):
        # a share of 1.5 used to become a "0,1.5,nan" row with exit 0
        out = tmp_path / "m.csv"
        code = main(["mdp", *grid, "--epoch-len", "3", "--out", str(out)])
        assert code == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("games", [1, -4])
    def test_mdp_games_without_stderr_rejected(self, games, tmp_path, capsys):
        # games=1 used to classify every probe "prescribed" (phi_min 1 here)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"shares": [0.35], "rhos": [0.0], "epoch_len": 6, "games": games}
        ))
        out = tmp_path / "m.csv"
        assert main(["mdp", "--config", str(path), "--out", str(out)]) == 2
        assert "config error: games:" in capsys.readouterr().err
        assert not out.exists()

    def test_mdp_sentinel_for_non_ic_share(self, tmp_path, capsys):
        out = tmp_path / "sent.csv"
        code = main(
            ["mdp", "--share", "0.35", "--rhos", "0.0", "--epoch-len", "6",
             "--seed", "2", "--out", str(out)]
        )
        assert code == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == -1.0


class TestMandatoryViaConfig:
    def test_heb_mandatory_simulates(self, tmp_path, capsys):
        cfg = {
            "protocol": "heb_mandatory",
            "epoch_len": 10,
            "rho": 0.5,
            "user_balance": 10**6,
            "miners": [
                {"id": "a", "share": 0.5, "strategy": "prescribed"},
                {"id": "b", "share": 0.5, "strategy": "prescribed"},
            ],
            "runs": 5,
            "seed": 9,
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "m.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        # ten blocks minted per epoch, split between the two miners
        assert sum(float(r[3]) for r in rows) == pytest.approx(10.0)

    def test_unknown_protocol_cites_field(self, tmp_path, capsys):
        cfg = {"protocol": "bitcoin", "epoch_len": 10,
               "miners": [{"id": "a", "share": 1.0}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "protocol" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["nakamoto", "prd"])
    def test_internal_allocation_needs_internal_pool(
        self, protocol, tmp_path, capsys
    ):
        cfg = {"protocol": protocol, "epoch_len": 10, "rho": 0.5,
               "miners": [{"id": "a", "share": 1.0, "strategy": "petty_compliant"}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "strategy" in capsys.readouterr().err

    def test_miner_without_id_cites_field(self, tmp_path, capsys):
        cfg = {"protocol": "nakamoto", "epoch_len": 10,
               "miners": [{"id": "a", "share": 0.5}, {"share": 0.5}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "miners" in capsys.readouterr().err

    def test_unknown_strategy_cites_field(self, tmp_path, capsys):
        cfg = {"protocol": "heb", "epoch_len": 10, "rho": 0.5,
               "miners": [{"id": "a", "share": 1.0, "strategy": "selfish"}]}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path)]) == 2
        assert "strategy" in capsys.readouterr().err

    # under a block-count quota a strategy that does not check it faults
    # mid-epoch, and quotas summing below epoch_len stall the epoch: both
    # are config errors raised before any epoch runs
    @pytest.mark.parametrize(
        "cfg, field",
        [
            *(
                ({"protocol": "heb_mandatory", "epoch_len": 100, "factor": 20, "rho": 0.5,
                  "user_balance": 1000000, "runs": 20, "seed": 1,
                  "miners": [{"id": "a", "share": 0.5, "strategy": strategy},
                             {"id": "b", "share": 0.5, "strategy": "prescribed"}]},
                 "miners[0].strategy")
                for strategy in ("petty_compliant", "no_ic", "pow_only")
            ),
            # quotas floor(2.5) + floor(7.5) = 9, below epoch_len 10
            ({"protocol": "heb_mandatory", "epoch_len": 10, "rho": 0.5,
              "allow_fractional": True,
              "miners": [{"id": "a", "share": 0.25}, {"id": "b", "share": 0.75}]},
             "shares"),
        ],
        ids=["petty_compliant", "no_ic", "pow_only", "quotas-below-epoch-len"],
    )
    def test_config_that_cannot_finish_an_epoch_rejected(
        self, cfg, field, tmp_path, capsys, monkeypatch
    ):
        def no_epochs(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(cli, "iter_game_results", no_epochs)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "m.csv")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}:" in err
        assert "Traceback" not in err


_ONE_MINER = {"protocol": "nakamoto", "epoch_len": 10,
              "miners": [{"id": "a", "share": 1.0}]}


class TestMalformedInput:
    """Each input exits 2 with a ConfigError naming the field, never a
    traceback, and writes no output."""

    @pytest.mark.parametrize(
        "argv, cfg, field",
        [
            (["simulate"], None, "config"),  # the config file does not exist
            (["simulate"], [1, 2], "config"),
            (["simulate"], {**_ONE_MINER, "miners": 5}, "miners"),
            (["simulate"], {**_ONE_MINER, "miners": [5]}, "miners"),
            (["simulate"], {**_ONE_MINER, "protocol": []}, "protocol"),
            (["mdp"], {"shares": [0.2], "rhos": [0.0], "epoch_len": 2.5}, "epoch_len"),
            (["simulate"], {**_ONE_MINER, "epoch_len": 10.7, "runs": 2.9}, "epoch_len"),
            (["simulate"], {**_ONE_MINER, "runs": 2.9}, "runs"),
            (["simulate"], {**_ONE_MINER, "seed": True}, "seed"),
            (["simulate"], {**_ONE_MINER, "allow_fractional": "no"}, "allow_fractional"),
            (["mdp", "--share", "0.2", "--rhos", "0.1,x", "--epoch-len", "3"], {},
             "rhos"),
            (["simulate"], "{not json", "config"),
            (["simulate", "--seed", "-1"], _ONE_MINER, "seed"),
            (["simulate", "--jobs", "-4"], _ONE_MINER, "jobs"),
            (["mdp", "--share", "0.2", "--rhos", "0", "--seed", "-1"], {}, "seed"),
            (["curves"], {"which": "fig2b", "shares": [0.1], "epoch_len": 100,
                          "factors": [math.inf]}, "factors"),
            (["curves"], {"which": "fig5", "shares": [0.1], "factors": [math.nan]},
             "factors"),
        ],
        ids=["missing-file", "json-list", "miners-number", "miners-of-numbers",
             "protocol-list", "mdp-fractional-epoch-len", "fractional-epoch-len",
             "fractional-runs", "boolean-seed", "string-allow-fractional",
             "bad-rhos-flag", "invalid-json", "negative-seed-flag",
             "negative-jobs-flag", "mdp-negative-seed-flag", "fig2b-infinite-factor",
             "fig5-nan-factor"],
    )
    def test_exits_2_naming_field(self, argv, cfg, field, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        if cfg is not None:
            path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        out = tmp_path / "res.csv"
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {field}:" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == ([path] if cfg is not None else [])

    @pytest.mark.parametrize(
        "cfg, field",
        [
            ({**_ONE_MINER, "runs": 0}, "runs"),
            ({**_ONE_MINER, "miners": [{"id": "a", "share": 0.5},
                                       {"id": "a", "share": 0.5}]}, "miners"),
            ({**_ONE_MINER, "seed": -1}, "seed"),
            ({**_ONE_MINER, "jobs": 0}, "jobs"),
            ({**_ONE_MINER, "jobs": -4}, "jobs"),
        ],
    )
    def test_simulate_rejects_before_any_epoch(
        self, cfg, field, tmp_path, capsys, monkeypatch
    ):
        def no_epochs(*args, **kwargs):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(cli, "iter_game_results", no_epochs)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"which": "fig2a", "shares": [0.0], "epoch_lens": [200], "factor": 20},
            {"which": "fig2a", "shares": [0.1], "epoch_lens": [0], "factor": 20},
        ],
    )
    def test_degenerate_fig2a_point(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "res.csv"
        assert main(["curves", "--config", str(path), "--out", str(out)]) == 2
        assert "must" in capsys.readouterr().err
        assert not out.exists()

    def test_epsilon_factor_overflowing_the_weight(self, tmp_path, capsys):
        # a finite factor whose epoch weight overflows wrote an epsilon of nan
        out = tmp_path / "eps.csv"
        argv = ["epsilon", "--dist", "0.3,0.7", "--epoch-len", "10",
                "--factor", "1e308", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: factor:" in err and "overflows" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_fig2a_factor_overflowing_the_weight(self, tmp_path, capsys):
        # ... and a normalized_weight of nan
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"which": "fig2a", "shares": [0.1], "epoch_lens": [10], "factor": 1e308}
        ))
        out = tmp_path / "res.csv"
        assert main(["curves", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "factor 1e+308 overflows" in err
        assert "Traceback" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("simulate", {**_ONE_MINER, "out": 5}),
            ("epsilon", {"distributions": [[0.3, 0.7]], "out": 5}),
            ("curves", {"which": "fig4", "rhos": [0.1], "out": 5}),
            ("curves", {"which": "fig4", "rhos": [0.1], "out": ""}),
            ("mdp", {"shares": [0.2], "rhos": [0.0], "epoch_len": 2, "games": 0,
                     "out": 5}),
        ],
        ids=["simulate", "epsilon", "curves", "curves-empty", "mdp"],
    )
    def test_out_not_a_path_rejected_before_any_work(
        self, command, cfg, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran")

        monkeypatch.setattr(cli, "iter_game_results", no_work)
        monkeypatch.setattr(cli, "min_factor", no_work)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error: out:" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    def test_costs_empty_out_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["costs", "--rho", "0.5", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert "config error: out:" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # rejected before any line is printed
        assert list(tmp_path.iterdir()) == []


class TestFlagsMatchConfig:
    """A flag overrides the config field of its name: the output equals that
    of a config file holding the flag's value."""

    MDP = {"shares": [0.2], "rhos": [0.0], "epoch_len": 2, "games": 0}
    EPS = {"distributions": [[0.5, 0.5]], "epoch_len": 100, "factor": 2}
    SIM = {**_ONE_MINER, "miners": [{"id": "a", "share": 0.5},
                                    {"id": "b", "share": 0.5}],
           "runs": 2, "seed": 1}

    @pytest.mark.parametrize(
        "command, base, flag, text, field, value",
        [
            ("mdp", {**MDP, "epoch_len": 3}, "--share", "0.35", "shares", [0.35]),
            ("mdp", {**MDP, "epoch_len": 3}, "--rhos", "0.0,0.5", "rhos", [0.0, 0.5]),
            ("mdp", MDP, "--epoch-len", "3", "epoch_len", 3),
            ("epsilon", EPS, "--dist", "0.3,0.7", "distributions", [[0.3, 0.7]]),
            ("epsilon", EPS, "--epoch-len", "1000", "epoch_len", 1000),
            ("epsilon", EPS, "--factor", "20", "factor", 20.0),
            ("simulate", SIM, "--runs", "3", "runs", 3),
            ("simulate", SIM, "--seed", "7", "seed", 7),
        ],
    )
    def test_flag_equals_config_value(
        self, command, base, flag, text, field, value, tmp_path, capsys
    ):
        outputs = []
        for name, cfg, extra in (
            ("flag", base, [flag, text]),
            ("file", {**base, field: value}, []),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / name / "res.csv"
            assert main([command, "--config", str(path), *extra, "--out", str(out)]) == 0
            outputs.append({
                p.name: p.read_bytes()
                for p in sorted(out.parent.iterdir())
                if not p.name.endswith(".timing.csv")  # wall times
            })
        assert outputs[0] == outputs[1]
        assert outputs[0]
