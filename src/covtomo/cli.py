"""Command-line interface.

Subcommands: simulate, estimate, recover, join, score, e2e. `e2e` is the
one way to run a scenario config, static or dynamic; `recover` shares its
recovery step, `recover.recover_from_matrix`, with it. `score` scores
against the truth tree's branching skeleton; every lowest common ancestor
of two leaves branches, so splicing single-child routers keeps the order
of shared path lengths, and `p` is the same as against the raw tree.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant violation. A config file that cannot be read or parsed exits 2,
and a log, tree or matrix file 3, with a message naming the file. An
output file that cannot be written exits 3, naming the file; `simulate`
checks its log and tree paths before it simulates, and `e2e` its report
path before it runs the scenario, so neither leaves a partial output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .accuracy import score_trees
from .delay_cov import build_covariance_matrix, covariance_oracle_from_log
from .dynamic import attach_peer
from .errors import ConfigError, DataError, InvariantError, TomographyError
from .logio import check_writable, export_log, import_log, load_matrix, load_tree, save_matrix, save_tree, write_json
from .model import branching_skeleton
from .recover import RecoveryConfig, recover_from_matrix
from .scenarios import _sim_from_resolved, load_config, run_dynamic_scenario, run_scenario, write_report
from .simulator import generate_topology, simulate_session


def _cmd_simulate(args) -> None:
    resolved = load_config(args.config)
    seed = args.seed if args.seed is not None else resolved["seeds"][0]
    sim = _sim_from_resolved(resolved, seed=seed)
    check_writable(args.out, "log")
    if args.truth_out:
        check_writable(args.truth_out, "tree")
    net = generate_topology(sim)
    log = simulate_session(net, sim)
    export_log(log, args.out)
    print(f"wrote {log.n_pairs} pairs for {len(log.receivers)} receivers to {args.out}")
    if args.truth_out:
        save_tree(net.truth, args.truth_out)
        print(f"wrote ground-truth tree to {args.truth_out}")


def _cmd_estimate(args) -> None:
    log = import_log(args.log)
    receivers = sorted(log.receivers) if args.receivers is None else args.receivers.split(",")
    cov = build_covariance_matrix(log, receivers)
    save_matrix(cov, args.out)
    print(f"wrote {len(receivers)}x{len(receivers)} covariance matrix to {args.out}")


def _cmd_recover(args) -> None:
    config = RecoveryConfig(args.rho)
    tree = recover_from_matrix(args.source, load_matrix(args.cov), config)
    tree.validate()
    save_tree(tree, args.out)
    print(f"recovered tree over {len(tree.leaves)} leaves (rho={config.rho:g} ms^2) to {args.out}")


def _cmd_join(args) -> None:
    config = RecoveryConfig(args.rho)
    tree = load_tree(args.tree)
    oracle = covariance_oracle_from_log(import_log(args.log))
    attach_peer(tree, oracle, args.peer, config)
    tree.validate()
    save_tree(tree, args.out)
    print(f"attached {args.peer} (rho={config.rho:g} ms^2); tree written to {args.out}")


def _cmd_score(args) -> None:
    report = score_trees(load_tree(args.recovered), branching_skeleton(load_tree(args.truth)))
    out = {**asdict(report), "against": "truth-skeleton"}
    if args.out:
        write_json(out, args.out, "score")
    print(json.dumps(out, sort_keys=True))


def _cmd_e2e(args) -> None:
    resolved = load_config(args.config)
    check_writable(args.out, "report")
    report = (run_dynamic_scenario if resolved.get("joins") else run_scenario)(resolved)
    summary = report["summary"]
    if report["mode"] == "dynamic":
        print(
            f"dynamic: initial mean p={summary['initial_mean_p']:.4f} "
            f"final mean p={summary['final_mean_p']:.4f} drop={summary['mean_drop']:.4f}"
        )
    else:
        print(f"static: mean p={summary['mean_p']:.4f} (stderr {summary['stderr_p']:.4f})")
    write_report(report, args.out)
    print(f"report written to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covtomo",
        description="Passive routing-tree tomography from packet-pair delay covariance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a topology and synthesize a measurement log")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="NDJSON measurement log to write")
    p.add_argument("--truth-out", default=None, help="also write the ground-truth tree JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="covariance matrix from a measurement log")
    p.add_argument("--log", required=True, help="NDJSON measurement log (import mode)")
    p.add_argument("--receivers", default=None, help="comma-separated subset (default: all)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("recover", help="recover the routing tree from a covariance matrix")
    p.add_argument("--cov", required=True)
    p.add_argument("--source", required=True, help="root host id")
    p.add_argument("--rho", type=float, required=True, help="recovery threshold in ms^2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("join", help="attach a joining peer to a recovered tree")
    p.add_argument("--tree", required=True)
    p.add_argument("--log", required=True, help="NDJSON log covering the peer")
    p.add_argument("--peer", required=True)
    p.add_argument("--rho", type=float, required=True, help="recovery threshold in ms^2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("score", help="tomography accuracy of a recovered tree vs the truth's branching skeleton")
    p.add_argument("--recovered", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("e2e", help="run a full scenario (static, or dynamic with joins) per config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_e2e)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except TomographyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
