"""Command-line front end: reproducible experiments, CSV/JSON emission.

Subcommands: ``simulate`` (epoch game batches), ``epsilon`` (size
indifference per balance distribution), ``curves`` (closed-form metric
grids), ``mdp`` (minimal-factor search), ``costs`` (attack costs and
external expense for a given internal-expenditure rate).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

from hebsim import metrics
from hebsim.chain import EpochParams, as_fraction
from hebsim.engine import (
    GameAccumulator,
    MinerConfig,
    StrategyFault,
    allocate,
    iter_game_results,
    normalized_balances,
)
from hebsim.mdp import StateBudgetError, min_factor
from hebsim.presets import PRESETS, get_preset
from hebsim.protocols import get_protocol, make_strategy
from hebsim import __version__


class ConfigError(Exception):
    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.fieldname = fieldname


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def load_config(args, required: bool = True) -> dict:
    """The preset or JSON config file named by ``args``, with every
    config-valued flag that was given copied over the field of its name."""
    if args.preset:
        cfg = get_preset(args.preset)
    elif args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as e:
            raise ConfigError("config", f"cannot read {args.config}: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config", f"{args.config} does not hold a JSON object")
    elif required:
        raise ConfigError("config", "either --preset or --config is required")
    else:
        cfg = {}
    cfg.update((key, val) for key, val in vars(args).items()
               if val is not None and key not in ("command", "fn", "config", "preset"))
    return cfg


def build_experiment(cfg: dict):
    """Validate a simulate config and build (params, miners, protocol)."""
    protocol = _field(cfg, "protocol", get_protocol, "nakamoto")
    try:
        params = EpochParams(
            epoch_len=_field(cfg, "epoch_len", _int, 100),
            factor=_field(cfg, "factor", _fraction, 1),
            rho=_field(cfg, "rho", _fraction, 0),
            mint=_field(cfg, "mint", _fraction, 1),
            user_balance=_field(cfg, "user_balance", _fraction, 10**6),
        )
    except ValueError as e:
        raise ConfigError("epoch params", str(e)) from None
    miner_cfgs = _field(cfg, "miners", _list(_typed(dict, "an object")))
    ids, shares, strategies = [], [], []
    for i, mc in enumerate(miner_cfgs):
        ids.append(_field(mc, "id", str, name=f"miners[{i}].id"))
        shares.append(_field(mc, "share", _fraction, name=f"miners[{i}].share"))
        strategies.append(_field(mc, "strategy", partial(make_strategy, protocol=protocol),
                                 "prescribed", name=f"miners[{i}].strategy"))
        # only the prescribed strategy checks a block-count quota before every block
        if protocol.quota_mode == "count" and mc.get("strategy", "prescribed") != "prescribed":
            raise ConfigError(f"miners[{i}].strategy",
                              f"protocol {protocol.name!r} admits only 'prescribed'")
    if len(set(ids)) != len(ids):
        raise ConfigError("miners", f"duplicate miner ids in {ids}")
    fractional = _field(cfg, "allow_fractional", _typed(bool, "true or false"), False)
    try:
        balances = normalized_balances(shares, params, allow_fractional=fractional)
    except ValueError as e:
        raise ConfigError("shares", str(e)) from None
    miners = [MinerConfig(*m) for m in zip(ids, balances, strategies)]
    limits = []
    for i, miner in enumerate(miners):
        try:
            limits.append(params.quota_limit(allocate(miner, params, protocol).internal))
        except StrategyFault as e:
            raise ConfigError(f"miners[{i}].strategy", str(e)) from None
    # each block of an epoch's main chain spends one unit of its creator's
    # block-count quota, so quotas that sum below epoch_len stall every epoch
    if protocol.quota_mode == "count" and None not in limits and sum(limits) < params.epoch_len:
        raise ConfigError("shares", f"the block quotas {limits} sum below epoch_len "
                          f"{params.epoch_len}, so every epoch would stall")
    return params, miners, protocol


def _field(cfg: dict, key: str, convert=None, default=None, name=None):
    """``convert(cfg[key])``, with ``default`` for an absent key.  A null, an
    absent key without default, or a value ``convert`` rejects is a
    ConfigError naming the field (``name``, else ``key``)."""
    x = cfg.get(key, default)
    if x is None:
        raise ConfigError(name or key, "missing or null")
    try:
        return x if convert is None else convert(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise ConfigError(name or key, f"invalid value {x!r}: {e}") from None


# strict converters: a JSON boolean is not a number, and a whole number is never truncated


def _typed(kind: type, what: str):
    def check(x):
        if not isinstance(x, kind):
            raise TypeError(f"expected {what}")
        return x

    return check


def _real(x, convert=float):
    if isinstance(x, bool):
        raise TypeError("a boolean is not a number")
    return convert(x)


def _int(x) -> int:
    if isinstance(x, float) and not x.is_integer():
        raise ValueError("not a whole number")
    return _real(x, int)


def _at_least(lo: int):
    def check(x) -> int:
        n = _int(x)
        if n < lo:
            raise ValueError(f"must be at least {lo}")
        return n

    return check


def _list(convert):
    def each(xs) -> list:
        if not isinstance(xs, list) or not xs:
            raise TypeError("expected a non-empty list")
        return [convert(x) for x in xs]

    return each


def _factor(x) -> float:
    f = _real(x)
    if not 1 <= f < math.inf:
        raise ValueError("must lie in [1, inf)")
    return f


def _path(x) -> str:
    if not isinstance(x, str) or not x:
        raise TypeError("expected a non-empty file path")
    return x


_fraction, _floats = partial(_real, convert=as_fraction), _list(_real)


def _write(path: str, text: str) -> Path:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    return out


# -- subcommands ----------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    params, miners, protocol = build_experiment(cfg)
    runs = _field(cfg, "runs", _at_least(1), 1)
    seed = _field(cfg, "seed", _at_least(0), 0)
    jobs = _field(cfg, "jobs", _at_least(1), 1)
    out = _field(cfg, "out", _path, "simulate.csv")

    acc = GameAccumulator(
        [m.id for m in miners],
        {m.id: float(m.strategy.allocate(m.balance, params).external) for m in miners},
    )
    run_lines = ["run,miner_id,utility,blocks,weight"]
    for idx, res in enumerate(
        iter_game_results(params, miners, protocol, runs, seed, jobs)
    ):
        for mid, (u, w) in zip(acc.ids, acc.add(res)):
            run_lines.append(f"{idx},{mid},{_fmt(u)},{res.stats[mid][0]},{_fmt(w)}")

    stats = acc.stats()
    out = _write(out, stats.to_csv())
    runs_path = out.with_name(out.stem + "_runs.csv")
    runs_path.write_text("\n".join(run_lines) + "\n")
    print(f"wrote {out} and {runs_path} ({runs} runs, seed {seed})")
    return 0


def cmd_epsilon(args) -> int:
    cfg = load_config(args, required=False)
    epoch_len = _field(cfg, "epoch_len", _at_least(1), 1000)
    factor = _field(cfg, "factor", _factor, 20)
    dists = _field(cfg, "distributions", _list(_floats))
    out = _field(cfg, "out", _path, "table2.csv")
    width = max(len(d) for d in dists)
    header = ",".join(f"b{i+1}" for i in range(width)) + ",epsilon"
    lines = [header]
    for d in dists:
        try:
            eps = metrics.epsilon(d, epoch_len, factor)
        except metrics.WeightOverflowError as e:
            raise ConfigError("factor", str(e)) from None
        except ValueError as e:
            raise ConfigError("shares", str(e)) from None
        cells = [f"{s:.4g}" for s in d] + ["-"] * (width - len(d))
        lines.append(",".join(cells) + f",{_fmt(eps)}")
    out = _write(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_curves(args) -> int:
    cfg = load_config(args)
    which = _field(cfg, "which")
    if which not in ("fig2a", "fig2b", "fig4", "fig5"):
        raise ConfigError("which", f"unknown curve set {which!r}")
    out = _field(cfg, "out", _path, f"{which}.csv")
    if which in ("fig2a", "fig2b"):
        # fig2a sweeps epoch_lens at a fixed factor, fig2b factors at a fixed epoch_len
        convert = {"epoch_len": _int, "factor": _factor}
        swept, fixed = convert if which == "fig2a" else reversed(convert)
        rows = metrics.normalized_weight_curve(
            _field(cfg, "shares", _floats),
            **{swept + "s": _field(cfg, swept + "s", _list(convert[swept])),
               fixed: _field(cfg, fixed, convert[fixed])},
        )
        lines = [f"{swept},share,normalized_weight"]
        lines += [f"{_fmt(x)},{_fmt(s)},{_fmt(v)}" for x, s, v in rows]
    elif which == "fig4":
        lines = ["rho,pow_only_bound"]
        lines += [
            f"{_fmt(r)},{_fmt(metrics.pow_only_bound(r))}"
            for r in _field(cfg, "rhos", _floats)
        ]
    else:  # fig5
        lines = ["factor,share,permissiveness"]
        shares = _field(cfg, "shares", _floats)
        for f in _field(cfg, "factors", _list(_factor)):
            for s in shares:
                lines.append(
                    f"{_fmt(f)},{_fmt(s)},{_fmt(metrics.permissiveness(s, f))}"
                )
    out = _write(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def cmd_mdp(args) -> int:
    cfg = load_config(args, required=False)
    shares = _field(cfg, "shares", _floats)
    rhos = _field(cfg, "rhos", _floats)
    ell = _field(cfg, "epoch_len", _at_least(1), 6)
    games = _field(cfg, "games", _int, 500)
    if games == 1 or games < 0:
        raise ConfigError("games", f"must be 0 (exact values) or at least 2, got {games}")
    seed = _field(cfg, "seed", _at_least(0), 0)
    out = _field(cfg, "out", _path, "fig3.csv")
    phi_lo = _field(cfg, "phi_lo", _real, 1.0)
    phi_hi = _field(cfg, "phi_hi", _real, 1.0e8)
    if not phi_lo >= 1.0:
        raise ConfigError("phi_lo", f"must be >= 1, got {phi_lo}")
    if not phi_lo <= phi_hi < math.inf:
        raise ConfigError("phi_hi", f"must be finite and >= phi_lo ({phi_lo}), got {phi_hi}")
    if not all(0.0 <= s <= 1.0 for s in shares):
        raise ConfigError("shares", f"each must lie in [0, 1], got {shares}")
    if not all(0.0 <= r < 1.0 for r in rhos):
        raise ConfigError("rhos", f"each must lie in [0, 1), got {rhos}")

    lines = ["rho,share,phi_min"]
    timing = ["rho,share,seconds"]
    for rho in rhos:
        for share in shares:
            t0 = time.perf_counter()
            try:
                res = min_factor(
                    share, rho, ell, phi_lo=phi_lo, phi_hi=phi_hi, games=games, seed=seed
                )
            except StateBudgetError as e:
                raise ConfigError("epoch_len", str(e)) from None
            phi_min = -1.0 if res.phi_min is None else res.phi_min
            if not res.monotone_ok:
                print(
                    f"warning: non-monotone classification near phi_min "
                    f"at rho={rho}, share={share}",
                    file=sys.stderr,
                )
            dt = time.perf_counter() - t0
            lines.append(f"{_fmt(rho)},{_fmt(share)},{_fmt(phi_min)}")
            timing.append(f"{_fmt(rho)},{_fmt(share)},{dt:.3f}")
    out = _write(out, "\n".join(lines) + "\n")
    out.with_suffix(".timing.csv").write_text("\n".join(timing) + "\n")
    print(f"wrote {out} (+ timing sidecar)")
    return 0


def cmd_costs(args) -> int:
    rho = float(args.rho)
    out = None if args.out is None else _field(vars(args), "out", _path)
    refunded, sabotage = metrics.attack_costs(rho)
    expense = metrics.external_expense(rho)
    print(f"rho={_fmt(rho)}")
    print(f"attack_cost_refunded={_fmt(refunded)}")
    print(f"attack_cost_sabotage={_fmt(sabotage)}")
    print(f"external_expense={_fmt(expense)}")
    if out is not None:
        _write(
            out,
            "rho,attack_cost_refunded,attack_cost_sabotage,external_expense\n"
            f"{_fmt(rho)},{_fmt(refunded)},{_fmt(sabotage)},{_fmt(expense)}\n",
        )
    return 0


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hebsim",
        description="Epoch mining-game simulator and metric toolkit",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON experiment config")
        sp.add_argument("--preset", help=f"named preset: {', '.join(sorted(PRESETS))}")
        sp.add_argument("--seed", type=int, help="override master seed")
        sp.add_argument("--out", help="output CSV path")

    sim = sub.add_parser("simulate", help="run epoch game batches")
    common(sim)
    sim.add_argument("--runs", type=int, help="number of independent runs")
    sim.add_argument("--jobs", type=int, help="upper bound on parallel worker processes")
    sim.set_defaults(fn=cmd_simulate)

    eps = sub.add_parser("epsilon", help="size-indifference per distribution")
    common(eps)
    eps.add_argument("--dist", dest="distributions", metavar="DIST",
                     type=lambda text: [text.split(",")],
                     help="comma-separated shares, e.g. 0.3,0.7")
    eps.add_argument("--epoch-len", dest="epoch_len", type=int)
    eps.add_argument("--factor", type=float)
    eps.set_defaults(fn=cmd_epsilon)

    cur = sub.add_parser("curves", help="closed-form metric grids")
    common(cur)
    cur.add_argument("--which", choices=["fig2a", "fig2b", "fig4", "fig5"])
    cur.set_defaults(fn=cmd_curves)

    mdp = sub.add_parser("mdp", help="minimal-factor search over (rho, share)")
    common(mdp)
    mdp.add_argument("--share", dest="shares", metavar="SHARE",
                     type=lambda text: [text], help="attacker relative balance")
    mdp.add_argument("--rhos", type=lambda text: text.split(","),
                     help="comma-separated rho grid")
    mdp.add_argument("--epoch-len", dest="epoch_len", type=int)
    mdp.set_defaults(fn=cmd_mdp)

    costs = sub.add_parser("costs", help="attack costs and external expense")
    costs.add_argument("--rho", type=float, required=True)
    costs.add_argument("--out", help="optional CSV path")
    costs.set_defaults(fn=cmd_costs)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
