"""Command-line front end.

Subcommands:
  generate    emit a random wide isotropic mixture source as JSON
  learn       run the learning pipeline (oracle or sampled) against a model
  lowerbound  build a hard pair and report its moment/TV numbers as CSV

Flags may be overridden by a JSON config file (--config wins over flags).
Exit codes: 0 ok, 1 learning failure (spikes that do not match, or statistics
too noisy to fit), 2 I/O error, 3 invalid config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .isotropize import build_refinement, default_sigma, pull_back
from .learner import DrawnInputs, MatchingFailure, OracleInputs, learn_mixture
from .lower_bounds import aperture_indistinguishability, hard_pair, sample_lower_bound, tv_snapshot_distance
from .model import InputError, LearningFailure, MixtureSource, mixture_transport, width_report
# draw_snapshots is not called here; perfbench/tracing.py patches this name
from .sampling import RngStream, draw_snapshots

EXIT_OK = 0
EXIT_LEARNING = 1
EXIT_IO = 2
EXIT_CONFIG = 3

CSV_HEADER = "run_id,n,k,N1,N2,Nhi,seed,tran_dist,max_l1_err,max_w_err,wall_ms"


@dataclass
class ExperimentConfig:
    n: int = 50
    k: int = 2
    seed: int = 0
    samples1: int = 100000
    samples2: int = 100000
    samples_hi: int = 100000
    zeta: float = 0.5
    varsigma: float = 0.0  # 0 means: derive xi from the sample count
    wmin: float = 0.0  # 0 means: read from the model when available
    mode: str = "sampled"  # 'oracle' | 'sampled'
    eps: float = 0.1
    sigma: float = 0.0  # 0 means: derive from eps * zeta^2 / (32 k wmin)
    isotropize: bool = False
    poisson: bool = False

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise InputError(f"{f.name} must be finite (got {value!r})")
        if self.n < 1 or self.k < 1:
            raise InputError("n and k must be positive")
        if self.mode not in ("oracle", "sampled"):
            raise InputError(f"unknown mode {self.mode!r}")
        least = 1 if self.mode == "sampled" else 0  # oracle mode reads no count
        if min(self.samples1, self.samples2, self.samples_hi) < least:
            raise InputError(f"sample counts must be at least {least} in {self.mode} mode")
        if not 0.0 < self.zeta <= 1.0:
            raise InputError("zeta must lie in (0, 1]")
        if self.varsigma > 1.0:  # xi = varsigma^(8k^2) is a moment accuracy, at most 1
            raise InputError(f"varsigma must be at most 1 (got {self.varsigma!r})")


def _field_accepts(type_name: str, value) -> bool:
    """Whether a JSON value fits a config field annotated ``type_name``."""
    if type_name == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    if type_name == "int":
        return isinstance(value, int)
    if type_name == "float":
        return isinstance(value, (int, float))
    return isinstance(value, str)


def _apply_config_file(cfg: ExperimentConfig, path: str):
    with open(path, "rb") as fh:  # OSError here is an I/O failure (exit 2)
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except ValueError as exc:
        raise InputError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("config file must hold a JSON object")
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    for key, value in doc.items():
        if key not in types:
            raise InputError(f"unknown config key {key!r}")
        if not _field_accepts(types[key], value):
            raise InputError(f"config key {key!r} must be of type {types[key]}, got {value!r}")
        setattr(cfg, key, float(value) if types[key] == "float" else value)


def _config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for f in fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    if getattr(args, "config", None):
        _apply_config_file(cfg, args.config)
    cfg.validate()
    return cfg


def _balanced_signs(gen, k, n):
    """Random sign rows with zero row sum (one slack zero when n is odd)."""
    s = np.zeros((k, n))
    half = n // 2
    for t in range(k):
        row = np.concatenate([np.ones(half), -np.ones(half), np.zeros(n % 2)])
        s[t] = row[gen.permutation(n)]
    return s


def generate_source(cfg: ExperimentConfig, budget=200) -> MixtureSource:
    """Rejection-sample a zeta-wide isotropic source around the uniform mean.

    Constituents are p^t = (1 + c stilde^t) / n for balanced sign patterns
    centered so the mean is exactly uniform (k = 2 uses an antipodal pair,
    which maximizes the reachable width).  Each candidate is re-checked with
    width_report before acceptance.
    """
    n, k = cfg.n, cfg.k
    gen = RngStream(cfg.seed, 77).generator()
    if k == 1:
        return MixtureSource(np.ones(1), np.full((1, n), 1.0 / n))
    if n < 2 * k:
        raise InputError("need n >= 2k to generate a wide source")
    for _ in range(budget):
        if cfg.wmin > 0:
            w = gen.dirichlet(np.full(k, 5.0))
            if w.min() < cfg.wmin:
                continue
        else:
            w = np.full(k, 1.0 / k)
        s = _balanced_signs(gen, k if k > 2 else 1, n)
        if k == 2:
            s = np.vstack([s[0], -s[0]])
        s = s - w @ s  # center so the mixture mean is exactly uniform
        cap = np.abs(s).max()
        if cap <= 0:
            continue
        c = 0.98 / cap
        rows = (1.0 + c * s) / n
        if rows.min() <= 0:
            continue
        src = MixtureSource(w, rows / rows.sum(axis=1, keepdims=True))
        rep = width_report(src)
        if rep.isotropic and rep.zeta >= cfg.zeta and rep.kprime == k - 1:
            return src
    raise InputError(
        "could not generate a source at the requested width; lower --zeta or raise n"
    )


def _run_id(cfg: ExperimentConfig) -> str:
    blob = json.dumps(cfg.__dict__, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def evaluate_errors(truth: MixtureSource, learned: MixtureSource):
    """Transportation distance plus best-permutation l1/weight errors."""
    from itertools import permutations

    tran = mixture_transport(truth, learned).cost
    best = None
    for perm in permutations(range(learned.k)):
        l1 = max(
            np.abs(truth.constituents[t] - learned.constituents[perm[t]]).sum()
            for t in range(truth.k)
        )
        werr = max(abs(truth.weights[t] - learned.weights[perm[t]]) for t in range(truth.k))
        key = (l1, werr)
        if best is None or key < best:
            best = key
    return tran, best[0], best[1]


def run_learn(cfg: ExperimentConfig, model: MixtureSource):
    """One pipeline run per the config; returns (result dict, learned source).

    Oracle mode learns from the model's exact moments.  Sampled mode learns
    from the statistics of ``samples1``/``samples2``/``samples_hi`` snapshots
    of the model (poissonized counts under ``poisson``), drawn straight from
    their multinomial law without building rows.  With ``isotropize`` the
    drawn item counts fix the rare-item reduction, the learner reads the
    statistics of the snapshots that hold no eliminated item on the split
    items, and the learned source is pulled back to the model's items.  The
    manifest's ``statistics`` key says which of "exact" and "drawn" the run
    learned from.
    """
    rng = RngStream(cfg.seed)
    start = time.perf_counter()
    xi = cfg.varsigma ** (8 * cfg.k**2) if cfg.varsigma > 0 else None
    counts = [cfg.samples1, cfg.samples2, cfg.samples_hi]  # sampled mode reports the counts drawn
    item_map = survival = None
    zeta = cfg.zeta

    if cfg.mode == "oracle":
        inputs = OracleInputs(model)
    else:
        gen = rng.child(3).generator()
        if cfg.poisson:
            counts = [int(gen.poisson(c)) for c in counts]
        inputs = DrawnInputs(model, *counts, rng.child(11))
        if cfg.isotropize:
            wmin = cfg.wmin if cfg.wmin > 0 else model.w_min
            sigma = cfg.sigma if cfg.sigma > 0 else default_sigma(cfg.eps, cfg.zeta, cfg.k, wmin)
            item_map = build_refinement(inputs.mean_distribution(), sigma)
            inputs = inputs.isotropized(item_map, cfg.k)
            survived = [int(inputs.item_counts().sum()), int(inputs.pair_counts().sum()),
                        inputs.samples_hi]
            survival = {"sigma": sigma, "nprime": item_map.nprime, "survived": survived,
                        "drawn": list(counts)}
            zeta = cfg.zeta / 2.0
    result = learn_mixture(inputs, cfg.k, zeta, rng.child(5), xi=xi)
    learned = result.source if item_map is None else pull_back(item_map, result.source)

    wall_ms = int(1000 * (time.perf_counter() - start))
    tran, l1, werr = evaluate_errors(model, learned)
    row = {
        "run_id": _run_id(cfg),
        "n": cfg.n,
        "k": cfg.k,
        "N1": counts[0],
        "N2": counts[1],
        "Nhi": counts[2],
        "seed": cfg.seed,
        "tran_dist": tran,
        "max_l1_err": l1,
        "max_w_err": werr,
        "wall_ms": wall_ms,
    }
    report = {
        "row": row,
        "manifest": result.manifest,
        "kprime": result.kprime,
        "degenerate": result.degenerate,
        "attempts": result.attempts,
        "survival": survival,
        "model": learned.as_dict(),
    }
    return report, learned


def _csv_row(row: dict) -> str:
    def fmt(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return str(v)

    return ",".join(fmt(row[c]) for c in CSV_HEADER.split(","))


def cmd_generate(args) -> int:
    cfg = _config_from_args(args)
    src = generate_source(cfg)
    text = src.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_learn(args) -> int:
    cfg = _config_from_args(args)
    try:
        with open(args.model, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return EXIT_IO
    model = MixtureSource.from_json(text)
    if cfg.k != model.k or cfg.n != model.n:
        cfg.k, cfg.n = model.k, model.n
    try:
        report, _ = run_learn(cfg, model)
    except MatchingFailure as exc:
        print(f"error: matching failed: {exc}", file=sys.stderr)
        return EXIT_LEARNING
    except LearningFailure as exc:
        print(f"error: learning failed: {exc}", file=sys.stderr)
        return EXIT_LEARNING
    lines = [CSV_HEADER, _csv_row(report["row"])]
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(csv_text)
            with open(args.out + ".json", "w") as fh:
                json.dump(report, fh, indent=2)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


def cmd_lowerbound(args) -> int:
    k, b, rho, m = args.k, args.b, args.rho, args.m
    if b is None:
        b = 2 * k - 1
    if m is None:
        m = max(2 * k - 2, 0)
    pair = hard_pair(k, b, rho)
    lines = ["quantity,value"]
    lines.append(f"k,{k}")
    lines.append(f"b,{b}")
    lines.append(f"rho,{rho}")
    lines.append(f"lp_value,{pair.lp_value!r}")
    lines.append(f"lp_bound,{pair.lp_bound!r}")
    lines.append(f"separation,{pair.separation!r}")
    lines.append(f"transport_floor,{pair.transport_floor!r}")
    for i in range(k):
        lines.append(f"alpha_{i},{float(pair.first.locations[i])!r}")
        lines.append(f"y_{i},{float(pair.first.weights[i])!r}")
        lines.append(f"beta_{i},{float(pair.second.locations[i])!r}")
        lines.append(f"z_{i},{float(pair.second.weights[i])!r}")
    g1 = pair.first.weights @ np.power(pair.first.locations[:, None], np.arange(b + 1))
    g2 = pair.second.weights @ np.power(pair.second.locations[:, None], np.arange(b + 1))
    for l in range(b + 1):
        lines.append(f"moment_{l}_first,{float(g1[l])!r}")
        lines.append(f"moment_{l}_second,{float(g2[l])!r}")
    lines.append(f"tv_closed_form,{pair.lp_value / 2!r}")
    lines.append(f"tv_brute_force,{tv_snapshot_distance(pair.first, pair.second, b)!r}")
    lines.append(f"tv_aperture_{m},{aperture_indistinguishability(pair, m)!r}")
    lines.append(f"tv_aperture_{2 * k - 1},{aperture_indistinguishability(pair, 2 * k - 1)!r}")
    lines.append(f"sample_bound_psi_0.05,{sample_lower_bound(pair, 0.05)!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_common(p):
    p.add_argument("--config", help="JSON config file; overrides flags")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples1", type=int)
    p.add_argument("--samples2", type=int)
    p.add_argument("--samples-hi", dest="samples_hi", type=int)
    p.add_argument("--zeta", type=float)
    p.add_argument("--varsigma", type=float)
    p.add_argument("--wmin", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--mode", choices=["oracle", "sampled"])
    p.add_argument("--isotropize", action="store_const", const=True, default=None)
    p.add_argument("--poisson", action="store_const", const=True, default=None,
                   help="poissonize the sample counts")
    p.add_argument("--out")


class _Parser(argparse.ArgumentParser):
    """A usage error (unknown flag, bad value) is an invalid config, not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser():
    parser = _Parser(prog="mixlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit a random wide isotropic source")
    _add_common(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_learn = sub.add_parser("learn", help="learn a mixture from a model file")
    _add_common(p_learn)
    p_learn.add_argument("--model", required=True, help="model JSON path")
    p_learn.set_defaults(func=cmd_learn)

    p_lb = sub.add_parser("lowerbound", help="hard-pair lower-bound demo")
    p_lb.add_argument("--k", type=int, default=2)
    p_lb.add_argument("--b", type=int, default=None)
    p_lb.add_argument("--rho", type=float, default=2.0)
    p_lb.add_argument("--m", type=int, default=None)
    p_lb.add_argument("--out")
    p_lb.set_defaults(func=cmd_lowerbound)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # -h exits 0 from here
        return args.func(args)
    except InputError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
