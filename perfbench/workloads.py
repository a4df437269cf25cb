"""The benchmark's workloads: seeded inputs, one round of ops, and the
relabelling-invariant observation each op is checked against.

Every workload is set up from a seed. Where it has input groups, the seed
relabels their points by a random permutation, which changes the element
enumeration order and which Sylow subgroup is picked but not the
mathematics, so the frozen answers in expected.json hold for every seed.
A run repeats whole rounds, so each run measures the same mix of ops.
Ops call fusionkit through the package namespace at call time, so that a
traced run sees the calls the benchmark itself makes.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "fusionkit", "__init__.py")):
    raise ImportError(f"no fusionkit sources under {SRC}")
sys.path.insert(0, SRC)

import fusionkit as fk  # noqa: E402
from fusionkit import perms  # noqa: E402
from fusionkit.cli import main as cli_main  # noqa: E402

if os.path.dirname(os.path.abspath(fk.__file__)) != os.path.join(
        SRC, "fusionkit"):
    raise ImportError(f"fusionkit was imported from {fk.__file__}, "
                      f"not from {SRC}")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


class Op:
    """One closed-loop operation. `run` is timed; `observe` turns its
    result into the relabelling-invariant value the oracle stores under
    `key`."""

    __slots__ = ("key", "run", "observe")

    def __init__(self, key, run, observe):
        self.key = key
        self.run = run
        self.observe = observe


def relabel(gens, degree: int, rng):
    """Conjugate permutation generators by a random relabelling of the
    points; with no rng the labels stay as they are."""
    if rng is None:
        return [tuple(g) for g in gens]
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for g in gens:
        h = [0] * degree
        for i, gi in enumerate(g):
            h[sigma[i]] = sigma[gi]
        out.append(tuple(h))
    return out


def _setup_rng(seed):
    return None if seed is None else random.Random(f"{seed}:inputs")


def _symmetric_gens(n):
    return [perms.from_cycles(n, [(0, 1)]),
            perms.from_cycles(n, [tuple(range(n))])]


def _a8_gens():
    return [perms.from_cycles(8, [(0, 1, 2)]),
            perms.from_cycles(8, [tuple(range(1, 8))])]


def _sl33_gens():
    """SL(3,3) on the 13 points of the projective plane, generated by the
    six elementary transvections."""
    pts = [v for v in ((a, b, c) for a in range(3) for b in range(3)
                       for c in range(3))
           if v != (0, 0, 0) and next(t for t in v if t) == 1]
    index = {v: i for i, v in enumerate(pts)}

    def norm(v):
        lead = next(t for t in v if t)
        return tuple(t * lead % 3 for t in v)  # lead is its own inverse

    gens = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            M = [[int(r == c) for c in range(3)] for r in range(3)]
            M[i][j] = 1
            gens.append(tuple(
                index[norm(tuple(sum(M[r][c] * v[c] for c in range(3)) % 3
                                 for r in range(3)))]
                for v in pts))
    return gens


def _es27_c2():
    """3^(1+2):2, the inverting involution on x and y."""
    P3 = fk.extraspecial_plus(3)
    x, y, z = P3.generator_ids()
    inv = P3.inverse_ids
    action = [[P3.elements[inv[x]], P3.elements[inv[y]], P3.elements[z]]]
    return fk.semidirect_product(P3, fk.cyclic_group(2), action)


# --------------------------------------------------------------------------
# transporter_jobs: cold CLI jobs on relabelled descriptor files

class TransporterJobs:
    """Each op is one in-process `fusionkit` CLI job reading a descriptor
    file written at setup. A round is every job on the small groups twice,
    in a seeded order, plus one A8 job, the tail. The four A8 jobs cost
    about the same (the transporter sweep over 20160 elements dominates);
    one per round, taking the commands in turn, keeps a run near its
    requested length and gives every run the same first rounds. Running
    the small jobs twice puts eight samples, not four, around the median
    latency."""

    COMMANDS = ("build", "saturation", "classify", "fcr")
    TAIL = "A8"
    SMALL_REPEATS = 2
    setup_repeats = 3
    trace_ops = 41

    def __init__(self, seed, workdir: str):
        rng = _setup_rng(seed)
        es = _es27_c2()
        pool = [
            ("S6", 2, 6, _symmetric_gens(6)),
            ("S6", 3, 6, _symmetric_gens(6)),
            ("S7", 2, 7, _symmetric_gens(7)),
            ("A8", 2, 8, _a8_gens()),
            ("SL(3,3)", 3, 13, _sl33_gens()),
            ("3^(1+2):2", 3, es.degree, es.generators),
        ]
        self.inputs = os.path.join(workdir, "inputs")
        self.outputs = os.path.join(workdir, "jobs")
        os.makedirs(self.inputs, exist_ok=True)
        os.makedirs(self.outputs, exist_ok=True)
        self.jobs = []
        self.tail_jobs = []
        self.rounds = 0
        for k, (name, p, degree, gens) in enumerate(pool):
            path = os.path.join(self.inputs, f"group{k}.json")
            with open(path, "w") as fh:
                json.dump({"type": "permutation", "degree": degree,
                           "generators": [list(g) for g in
                                          relabel(gens, degree, rng)]}, fh)
            for cmd in self.COMMANDS:
                out = os.path.join(self.outputs, f"group{k}-{cmd}.json")
                argv = [cmd, "--group", path, "--sylow", str(p), "--out", out]
                jobs = self.tail_jobs if name == self.TAIL else self.jobs
                jobs.append((f"{name}@{p}:{cmd}", argv, out))

    def round(self, rng):
        jobs = (self.jobs * self.SMALL_REPEATS
                + [self.tail_jobs[self.rounds % len(self.tail_jobs)]])
        self.rounds += 1
        rng.shuffle(jobs)
        return [Op(key, lambda argv=argv: cli_main(argv),
                   lambda code, out=out, cmd=key.rpartition(":")[2]:
                   _job_observation(code, out, cmd))
                for key, argv, out in jobs]


def _job_observation(code, path, cmd):
    with open(path) as fh:
        rep = json.load(fh)
    if "error" in rep:
        return {"exit": code, "error": rep["error"]}
    obs = {
        "exit": code,
        "verdict": rep["verdict"],
        "cards": sorted(rep["digests"]["system"]["cardinalities"]),
    }
    if cmd == "fcr":
        obs["fcr_orders"] = sorted(e["order"] for e in rep["data"]["fcr"])
    if cmd == "saturation":
        obs["classes"] = len(rep["rows"])
    if cmd == "classify":
        flags = ("fully_automised", "receptive", "centric", "radical",
                 "fully_normalised", "strongly_closed")
        obs["flag_rows"] = [[list(fl), n] for fl, n in sorted(
            Counter(tuple(r[f] for f in flags) for r in rep["rows"]).items())]
    return obs


# --------------------------------------------------------------------------
# exotic_rv: the three systems over 7^(1+2)

class ExoticRV:
    """Each op builds one exotic system and checks its eight rank-2
    subgroups are centric and radical, as `certify_rv` does; a round is
    the three names in a seeded order."""

    NAMES = ("rv1", "rv2", "rv3")
    setup_repeats = 3
    trace_ops = 1

    def __init__(self, seed, workdir: str):
        """build_rv takes only a name: there are no inputs to generate."""

    def round(self, rng):
        names = list(self.NAMES)
        rng.shuffle(names)
        return [Op(name, lambda name=name: _build_and_check_rv(name),
                   _rv_observation) for name in names]


def _build_and_check_rv(name):
    F = fk.build_rv(name)
    rank2 = [Q for Q in F.objects() if Q.order == F.p ** 2]
    checks = [(len(fk.aut_F(F, V)), fk.is_centric(F, V),
               fk.is_radical(F, V)) for V in rank2]
    return F, checks


def _rv_observation(raw):
    F, checks = raw
    return {
        "rank2_automizers": sorted(
            [n, c] for n, c in Counter(n for n, _, _ in checks).items()),
        "rank2_centric_radical": sum(c and r for _, c, r in checks),
        "morphisms": sum(len(F.hom_to_S_tables(Q)) for Q in F.objects()),
    }


# --------------------------------------------------------------------------
# product_witness: product, quotient and centralizer calculus at p = 3

class ProductWitness:
    """Each op is what `fusionkit witness --p 3` computes, on relabelled
    systems: `main_theorem_witness` on each of its four combinations, in a
    seeded order. One combination per op would put the median latency in
    the gap between the two cheap and the two expensive combinations,
    where it moved by 10 % from run to run. The factor systems are built
    and saturated at setup, so their hom tables are warm before the timed
    loop."""

    KEY = "witness --p 3"
    setup_repeats = 3
    trace_ops = 1

    def __init__(self, seed, workdir: str):
        rng = _setup_rng(seed)

        def system(G, p=3):
            H = fk.FiniteGroup(G.degree, relabel(G.generators, G.degree, rng))
            F = fk.transporter_fusion(H, fk.sylow_p(H.full(), p), p)
            fk.is_saturated(F)
            return F

        firsts = [("inner(3^(1+2))", system(fk.extraspecial_plus(3))),
                  ("3^(1+2):2", system(_es27_c2()))]
        seconds = [("inner(C3)", system(fk.cyclic_group(3))),
                   ("S3", system(fk.FiniteGroup(3, _symmetric_gens(3))))]
        self.combos = [(f"{n1} x {n2}", F1, F2)
                       for n1, F1 in firsts for n2, F2 in seconds]

    def round(self, rng):
        combos = list(self.combos)
        rng.shuffle(combos)
        return [Op(self.KEY, lambda: [
            (key, fk.main_theorem_witness(F1, F2)) for key, F1, F2 in combos],
            lambda reports: {key: w.as_dict() for key, w in reports})]


# --------------------------------------------------------------------------
# decompose_queries: hot queries against a system built at setup

class DecomposeQueries:
    """The A8 2-fusion system is built and classified at setup; each op
    decomposes one seeded morphism through fcr automorphisms and verifies
    the chain. Set-up is one long build (about 8 s), so it runs once per
    run rather than three times."""

    setup_repeats = 1
    trace_ops = 20

    def __init__(self, seed, workdir: str):
        rng = _setup_rng(seed)
        G = fk.FiniteGroup(8, relabel(_a8_gens(), 8, rng))
        F = fk.transporter_fusion(G, fk.sylow_p(G.full(), 2), 2)
        fk.fcr_objects(F)
        self.F = F
        self.morphisms = [(Q, t) for Q in F.objects()
                          for t in F.hom_to_S_tables(Q)]

    def round(self, rng):
        phi = rng.choice(self.morphisms)
        return [Op("decomposition", lambda: self._decompose(phi),
                   lambda check: {"verified": bool(check),
                                  "violated": check.violated})]

    def _decompose(self, phi):
        return fk.verify_decomposition(self.F,
                                       fk.alperin_decompose(self.F, phi))


WORKLOADS = {
    "transporter_jobs": TransporterJobs,
    "exotic_rv": ExoticRV,
    "product_witness": ProductWitness,
    "decompose_queries": DecomposeQueries,
}


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)
