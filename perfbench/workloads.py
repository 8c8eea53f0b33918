"""The benchmark's workloads: a fixed source and a fixed list of instance seeds each.

One instance is one ``mixlearn.cli.run_learn`` call on the workload's config
with one seed from its list. Every run of a workload does the same instances,
so its figures do not depend on how fast the machine happens to be; the
benchmark's ``--seed`` only fixes the order in which the instances run.
Why each workload exists is written in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

from dataclasses import dataclass

# the untimed warm-up instance; outside every workload's seed list
WARMUP_SEED = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    mode: str  # 'oracle' | 'sampled'
    samples: int  # N per aperture; unused in oracle mode
    gen_zeta: float  # width asked of generate_source; learning uses width_report's
    source_seed: int
    seeds: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="sampled-wide", n=120, k=2, mode="sampled", samples=100_000,
                 gen_zeta=0.5, source_seed=9, seeds=tuple(range(48))),
        Workload(name="sampled-tall", n=20, k=2, mode="sampled", samples=3_000_000,
                 gen_zeta=0.5, source_seed=9, seeds=tuple(range(60))),
        Workload(name="oracle-k3", n=60, k=3, mode="oracle", samples=0,
                 gen_zeta=0.2, source_seed=9, seeds=tuple(range(900))),
    )
}
