"""The benchmark's workloads: each runs one seed pass through a public
covtomo entry point, then checks the pass's outputs.

Every workload stresses a different layer, so one of them exercises a
future optimisation while another bypasses it:

* static-420   -- `scenarios.run_scenario` at 420 receivers, no congestion:
                  bound by the covariance matrix.
* growth-joins -- `scenarios.run_dynamic_scenario`, 105 receivers grown by
                  12 join batches of 50 to 705: bound by scoring, the join
                  walk, the pair oracle and the dict log; the matrix is ~1%.
* lossy-import -- `cli.main` simulate/estimate/recover/score at the
                  high-load point where every link is congested: the only
                  workload through `logio` and `cli`, with a parsed log
                  whose pairs each have their own common index set.

A pass is `run` (timed) followed by `finish` (untimed): the report digest,
the accuracy `p`, and the correctness checks. Only the generated config is
handed to the program; the seeds come from the benchmark's `--seed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from covtomo import cli, scenarios
from covtomo.accuracy import classify_triple, score_trees
from covtomo.delay_cov import align_pairs, estimate_covariance, normalize_series
from covtomo.errors import InvariantError
from covtomo.logio import load_matrix, load_tree
from covtomo.model import RoutingTree, branching_skeleton

RHO_MS2 = 0.35
# criterion 4/6 desk-scale settings: 150 hosts, 50 routers, 105 receivers
DESK = {
    "n_hosts": 150,
    "n_routers": 50,
    "n_pairs": 2000,
    "link_delay_var_ms2": [0.5, 1.5],
    "bg_rate_bytes_per_sec": 4e6,
}
# a few receivers at a few hundred pairs: every code path in about a second
TINY = {"n_hosts": 30, "n_routers": 10, "n_pairs": 300, "link_delay_var_ms2": [0.5, 1.5]}

MATRIX_SAMPLES = 24  # sampled matrix / oracle entries checked per pass
SCORE_SAMPLE_LEAVES = 10  # leaves in the brute-force triple check (10^3 triples)
# spans every traced pass must record, by workload
PIPELINE_SPANS = frozenset(
    {
        "simulator.generate_topology",
        "simulator.simulate_session",
        "delay_cov.build_covariance_matrix",
        "ordering.dfs_order",
        "recover.recover_tree",
        "recover.classify_case",
        "model.branching_skeleton",
        "accuracy.score_trees",
    }
)


@dataclass
class PassOutput:
    """What `finish` makes of one pass."""

    digest: str
    p: float
    failures: list[str] = field(default_factory=list)


def _report_digest(report: dict) -> str:
    # the bytes scenarios.write_report would write
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reference_cov(log, a, b) -> float:
    aligned = align_pairs(log, {a, b})
    return estimate_covariance(normalize_series(log, a, aligned), normalize_series(log, b, aligned))


def check_cov_entries(lookup, log, pairs, what: str) -> list[str]:
    """Each sampled entry must equal the float reference estimator exactly."""
    failures = []
    for a, b in pairs:
        got = lookup(a, b)
        want = _reference_cov(log, a, b)
        if got != want:
            failures.append(f"{what}({a}, {b}) = {got!r}, reference {want!r}")
    return failures


def sample_pairs(rng: random.Random, ids, n: int, diagonal: int = 4):
    ids = sorted(ids)
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(n)]
    pairs += [(x, x) for x in rng.sample(ids, min(diagonal, len(ids)))]
    return pairs


def check_tree(tree: RoutingTree, clients) -> list[str]:
    try:
        tree.validate()
    except InvariantError as exc:
        return [f"recovered tree fails validate(): {exc}"]
    if tree.leaves != set(clients):
        return [f"recovered leaves differ from the clients ({len(tree.leaves)} vs {len(clients)})"]
    return []


def check_scoring(recovered: RoutingTree, truth: RoutingTree, rng: random.Random) -> list[str]:
    """score_trees on a sampled leaf subset must equal brute-force
    classify_triple over every ordered triple of that subset."""
    leaves = sorted(recovered.leaves & truth.leaves)
    subset = sorted(rng.sample(leaves, min(SCORE_SAMPLE_LEAVES, len(leaves))))
    n = len(subset)
    correct = distinct = 0
    for i in subset:
        for j in subset:
            for k in subset:
                ok = classify_triple(i, j, k, recovered, truth)
                correct += ok
                if i != j and j != k and i != k:
                    distinct += ok
    report = score_trees(recovered, truth, subset)
    want_p = correct / n**3
    want_distinct = distinct / (n * (n - 1) * (n - 2)) if n >= 3 else None
    if report.p != want_p or report.p_distinct != want_distinct:
        return [
            f"score_trees on {n} sampled leaves gives p={report.p!r}/{report.p_distinct!r}, "
            f"brute force {want_p!r}/{want_distinct!r}"
        ]
    return []


class Workload:
    name: str
    # distinct seeds one run cycles through; p varies a lot between seeds,
    # so enough of them that the run-to-run spread of p_mean stays small
    seeds_per_run: int
    scales: dict[str, dict]
    expected_spans: frozenset[str]
    # (module, attribute) of the entry-point calls whose arguments and
    # result `finish` reads (see tracing.Patch)
    keep: tuple

    def seeds(self, seed: int) -> list[int]:
        """The run's seeds, derived from the benchmark's --seed alone."""
        return [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]

    def config(self, scale: str, seeds) -> dict:
        return {"simulator": self.scales[scale], "recovery": {"rho_ms2": RHO_MS2}, "seeds": seeds}

    def write_config(self, workdir: Path, scale: str, seeds) -> Path:
        path = workdir / f"{self.name}.json"
        path.write_text(json.dumps(self.config(scale, seeds), sort_keys=True, indent=2) + "\n")
        return path

    def load(self, config_path: Path, workdir: Path) -> None:
        """Untimed: parse the config written during set-up."""
        self.resolved = scenarios.load_config(config_path)
        self.config_path = config_path
        self.workdir = workdir

    def run(self, seed: int):
        """The timed pass: one seed through the public entry point."""
        raise NotImplementedError

    def finish(self, seed: int, output, seen: dict) -> PassOutput:
        """Untimed: digest, accuracy and correctness checks of one pass."""
        raise NotImplementedError


class Static420(Workload):
    name = "static-420"
    seeds_per_run = 3
    expected_spans = PIPELINE_SPANS | {"scenarios.run_scenario"}
    scales = {
        "full": dict(DESK, n_hosts=600, n_routers=200),
        "tiny": dict(TINY, n_hosts=40, n_routers=14),
    }

    keep = ((scenarios, "generate_topology"), (scenarios, "build_covariance_matrix"))

    def run(self, seed):
        return scenarios.run_scenario(dict(self.resolved, seeds=[seed]))

    def finish(self, seed, report, seen):
        (_, net), ((log, _), cov) = seen["generate_topology"], seen["build_covariance_matrix"]
        rng = random.Random(seed)
        tree = RoutingTree.from_dict(report["runs"][0]["tree"])
        failures = check_cov_entries(cov.get, log, sample_pairs(rng, net.clients, MATRIX_SAMPLES), "matrix")
        failures += check_tree(tree, net.clients)
        failures += check_scoring(tree, branching_skeleton(net.truth), rng)
        return PassOutput(_report_digest(report), report["runs"][0]["p"], failures)


class GrowthJoins(Workload):
    name = "growth-joins"
    seeds_per_run = 3
    expected_spans = PIPELINE_SPANS | {
        "scenarios.run_dynamic_scenario",
        "simulator.grow_network",
        "delay_cov.covariance_oracle_from_log",
        "delay_cov.oracle",
        "dynamic.attach_peer",
    }
    scales = {"full": DESK, "tiny": TINY}
    batches = {"full": [50] * 12, "tiny": [5, 5]}

    def config(self, scale, seeds):
        joins = {"batches": self.batches[scale], "n_pairs": self.scales[scale]["n_pairs"]}
        return dict(super().config(scale, seeds), joins=joins)

    keep = ((scenarios, "generate_topology"), (scenarios, "covariance_oracle_from_log"))

    def run(self, seed):
        return scenarios.run_dynamic_scenario(dict(self.resolved, seeds=[seed]))

    def finish(self, seed, report, seen):
        (_, net), ((log,), oracle) = seen["generate_topology"], seen["covariance_oracle_from_log"]
        rng = random.Random(seed)
        run = report["runs"][0]
        tree = RoutingTree.from_dict(run["final_tree"])
        # the last batch's oracle, on pairs drawn from every current client
        failures = check_cov_entries(oracle, log, sample_pairs(rng, log.receivers, MATRIX_SAMPLES, 0), "oracle")
        failures += check_tree(tree, net.clients)
        failures += check_scoring(tree, branching_skeleton(net.truth), rng)
        return PassOutput(_report_digest(report), run["curve"][-1]["p"], failures)


class LossyImport(Workload):
    name = "lossy-import"
    seeds_per_run = 6
    expected_spans = PIPELINE_SPANS | {
        "cli.main",
        "logio.export_log",
        "logio.import_log",
        "logio.save_tree",
        "logio.load_tree",
        "logio.save_matrix",
        "logio.load_matrix",
    }
    scales = {
        "full": dict(DESK, bg_rate_bytes_per_sec=12e6),
        "tiny": dict(TINY, bg_rate_bytes_per_sec=12e6),
    }
    files = ("log.ndjson", "truth.json", "cov.json", "tree.json", "score.json")

    keep = ((cli, "import_log"),)

    def run(self, seed):
        log, truth, cov, tree, score = (str(self.workdir / f) for f in self.files)
        steps = [
            ["simulate", "--config", str(self.config_path), "--seed", str(seed), "--out", log, "--truth-out", truth],
            ["estimate", "--log", log, "--out", cov],
            ["recover", "--cov", cov, "--source", None, "--rho", str(RHO_MS2), "--out", tree],
            ["score", "--recovered", tree, "--truth", truth, "--out", score],
        ]
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in steps:
                if argv[0] == "recover":
                    # the source host is the root of the ground-truth tree
                    argv[argv.index(None)] = json.loads(Path(truth).read_text(encoding="utf-8"))["id"]
                codes.append((argv[0], cli.main(argv)))
                if codes[-1][1] != 0:
                    break
        return codes

    def finish(self, seed, codes, seen):
        failures = [f"covtomo {cmd} exited {rc}" for cmd, rc in codes if rc != 0]
        if failures:
            return PassOutput("", float("nan"), failures)
        digest = hashlib.sha256()
        for name in self.files:
            digest.update((self.workdir / name).read_bytes())
        rng = random.Random(seed)
        (_, log) = seen["import_log"]
        cov = load_matrix(self.workdir / "cov.json")
        tree = load_tree(self.workdir / "tree.json")
        truth = load_tree(self.workdir / "truth.json")
        failures += check_cov_entries(cov.get, log, sample_pairs(rng, log.receivers, MATRIX_SAMPLES), "matrix")
        failures += check_tree(tree, truth.leaves)
        if truth.leaves != set(log.receivers):
            failures.append("ground-truth leaves differ from the log's receivers")
        failures += check_scoring(tree, branching_skeleton(truth), rng)
        p = json.loads((self.workdir / "score.json").read_text(encoding="utf-8"))["p"]
        return PassOutput(digest.hexdigest(), p, failures)


WORKLOADS = {w.name: w for w in (Static420, GrowthJoins, LossyImport)}
