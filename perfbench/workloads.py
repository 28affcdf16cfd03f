"""The benchmark's workloads: how each makes its inputs, runs one job through
the public command line entry point, and checks the job's output against a
reference that does not come from the code under test.

Every job runs in-process through ``bsdecomp.cli.main``, the function behind
the ``bsdecomp`` console script, with its stdout and stderr captured.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

# The Betti-table workload draws its ideals once, from this fixed seed, and the
# run's --seed only relabels them (variable order, generator order, job order).
# Fresh draws per seed made the cost of a 30-ideal pass vary by 2x between
# seeds, which would swamp any regression bound; relabeling keeps the work
# fixed while the bytes the program receives still change with the seed.
CATALOGUE_SEED = 150908544
RANDOM_IDEALS = 30
RANDOM_VARIABLES = 8
RANDOM_DRAWN_GENERATORS = 10
RANDOM_DEGREES = (2, 4)

VERIFY_OK = "ok: decomposition reconstructs the table exactly\n"


def _capture_main(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def monomial_text(exponents) -> str:
    parts = []
    for v, e in enumerate(exponents):
        if e:
            parts.append(f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}")
    return "*".join(parts)


def minimal_generators(gens) -> list[tuple[int, ...]]:
    unique = set(gens)
    return sorted(
        g for g in unique
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in unique)
    )


def draw_catalogue(count: int = RANDOM_IDEALS) -> list[list[tuple[int, ...]]]:
    """Random monomial ideals that are not equigenerated, as minimal
    generator exponent vectors."""
    rng = random.Random(CATALOGUE_SEED)
    out = []
    while len(out) < count:
        gens = []
        for _ in range(RANDOM_DRAWN_GENERATORS):
            exps = [0] * RANDOM_VARIABLES
            for _ in range(rng.randint(*RANDOM_DEGREES)):
                exps[rng.randrange(RANDOM_VARIABLES)] += 1
            gens.append(tuple(exps))
        minimal = minimal_generators(gens)
        if len({sum(g) for g in minimal}) > 1:
            out.append(minimal)
    return out


class Failure(Exception):
    """A job whose output differs from the reference."""


class StabilizeWorkload:
    """``bsdecomp stabilize`` on one fixed ideal; the seed changes nothing,
    so the report can be compared byte for byte with a frozen copy."""

    def __init__(self, name: str, num_vars: int, generators: tuple[str, ...], kmax: int,
                 reference_check=None):
        self.name = name
        self.num_vars = num_vars
        self.generators = generators
        self.kmax = kmax
        self.reference_check = reference_check

    def prepare(self, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
        path = workdir / f"{self.name}.ideal.json"
        path.write_text(json.dumps({"variables": self.num_vars, "generators": list(self.generators)}))
        argv = ["stabilize", "--ideal", str(path), "--kmin", "1", "--kmax", str(self.kmax)]
        return [(self.name, argv)]

    def run(self, cli, argv):
        return _capture_main(cli, argv)

    def load_expected(self, expected_dir: Path):
        return (
            (expected_dir / f"{self.name}.report.json").read_text(encoding="utf-8"),
            (expected_dir / f"{self.name}.summary.txt").read_text(encoding="utf-8"),
        )

    def check(self, key, output, expected) -> None:
        code, report, summary = output
        want_report, want_summary = expected
        if code != 0:
            raise Failure(f"exit code {code}: {summary.strip()}")
        if report != want_report:
            raise Failure("report bytes differ from the frozen report")
        if summary != want_summary:
            raise Failure("summary text differs from the frozen summary")
        if self.reference_check is not None:
            self.reference_check(json.loads(report))


def check_path_ideal_reference(report: dict) -> None:
    """P5's fit, positive chain and positive terms against tests/reference_values.py."""
    import reference_values as ref

    fit = {
        tuple(int(x) for x in key.strip("()").split(",")): [Fraction(c) for c in body["coefficients"]]
        for key, body in report["fit"].items()
    }
    want_fit = {pos: list(p.coefficients) for pos, p in ref.ENTRY_POLYNOMIALS.items()}
    if fit != want_fit:
        raise Failure("fit differs from reference_values.ENTRY_POLYNOMIALS")
    chain = tuple(tuple(s) for s in report["positive_chain"])
    if chain != ref.POSITIVE_CHAIN_OFFSETS:
        raise Failure("positive chain differs from reference_values.POSITIVE_CHAIN_OFFSETS")
    terms = [
        (tuple(t["offsets"]), [Fraction(c) for c in t["coefficient_poly"]["coefficients"]])
        for t in report["positive_decomposition"]["terms"]
    ]
    want_terms = [(offsets, list(p.coefficients)) for offsets, p in ref.POSITIVE_TERMS]
    if terms != want_terms:
        raise Failure("positive terms differ from reference_values.POSITIVE_TERMS")


def parse_btt(text: str) -> dict[tuple[int, int], Fraction]:
    """Nonzero entries of a .btt table, read without the library's parser."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    min_row, max_row, max_col = (int(x) for x in lines[0])
    if len(lines) != max_row - min_row + 2:
        raise Failure(f"btt has {len(lines) - 1} rows, header says {max_row - min_row + 1}")
    entries = {}
    for t, row in enumerate(lines[1:]):
        if len(row) != max_col + 1:
            raise Failure(f"btt row {t} has {len(row)} entries, expected {max_col + 1}")
        for i, cell in enumerate(row):
            value = Fraction(cell)
            if value:
                entries[(i, i + min_row + t)] = value
    return entries


def reconstruct(terms) -> dict[tuple[int, int], Fraction]:
    """Sum of coefficient * pure diagram, where the pure diagram of
    d_0 < ... < d_s has entry prod_{p != i} 1/|d_p - d_i| at (i, d_i)."""
    total: dict[tuple[int, int], Fraction] = {}
    for coefficient, degrees in terms:
        for i, di in enumerate(degrees):
            prod = 1
            for p, dp in enumerate(degrees):
                if p != i:
                    prod *= abs(dp - di)
            pos = (i, di)
            total[pos] = total.get(pos, Fraction(0)) + coefficient / prod
    return {pos: v for pos, v in total.items() if v}


class BettiRandomWorkload:
    """``bsdecomp betti`` -> ``decompose`` -> ``verify`` on random ideals."""

    name = "betti-random"

    def __init__(self, count: int = RANDOM_IDEALS):
        self.count = count
        self.ideals: dict[str, list[tuple[int, ...]]] = {}

    def prepare(self, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
        rng = random.Random(seed)
        btt = workdir / "job.btt"
        dec = workdir / "job.decomposition.json"
        jobs = []
        for index, gens in enumerate(draw_catalogue(self.count)):
            perm = list(range(RANDOM_VARIABLES))
            rng.shuffle(perm)
            relabeled = [tuple(g[perm[v]] for v in range(RANDOM_VARIABLES)) for g in gens]
            rng.shuffle(relabeled)
            key = f"ideal{index:02d}"
            self.ideals[key] = relabeled
            path = workdir / f"{key}.json"
            path.write_text(json.dumps({
                "variables": RANDOM_VARIABLES,
                "generators": [monomial_text(g) for g in relabeled],
            }))
            jobs.append((key, [
                ["betti", "--ideal", str(path), "--format", "btt", "--out", str(btt)],
                ["decompose", "--table", str(btt), "--out", str(dec)],
                ["verify", "--table", str(btt), "--decomposition", str(dec)],
            ]))
        rng.shuffle(jobs)
        return jobs

    def run(self, cli, argvs):
        results = [_capture_main(cli, argv) for argv in argvs]
        # the files are read back outside the timed region, in check()
        return results, argvs[1][2], argvs[1][4]

    def load_expected(self, expected_dir: Path):
        # expected tables come from the Taylor-complex oracle, computed on
        # first use per ideal so that set-up time stays import plus inputs
        return {}

    def check(self, key, output, expected) -> None:
        results, btt_path, dec_path = output
        for command, (code, _, err) in zip(("betti", "decompose", "verify"), results):
            if code != 0:
                raise Failure(f"{command} exited {code}: {err.strip()}")
        if results[2][1] != VERIFY_OK:
            raise Failure(f"verify printed {results[2][1]!r}")
        btt_text = Path(btt_path).read_text(encoding="utf-8")
        decomposition = json.loads(Path(dec_path).read_text(encoding="utf-8"))
        # so that the next job cannot pass on this job's files
        Path(btt_path).unlink()
        Path(dec_path).unlink()
        if key not in expected:
            expected[key] = oracle_table(RANDOM_VARIABLES, self.ideals[key])
        table = parse_btt(btt_text)
        if table != expected[key]:
            raise Failure("Betti table differs from the Taylor-complex oracle")
        check_greedy(decomposition, table)


def check_greedy(decomposition: dict, table: dict) -> None:
    terms = [(Fraction(t["coefficient"]), tuple(t["degrees"])) for t in decomposition["terms"]]
    if not terms or any(c <= 0 for c, _ in terms):
        raise Failure("greedy decomposition has a coefficient that is not positive")
    if reconstruct(terms) != table:
        raise Failure("greedy decomposition does not reconstruct the table")


def oracle_table(num_vars: int, gens) -> dict[tuple[int, int], Fraction]:
    """Betti table from tests/oracles.py, fed the harness's own minimal
    generators rather than the library's ideal type."""
    import oracles

    ideal = SimpleNamespace(num_vars=num_vars, generators=[SimpleNamespace(exponents=g) for g in gens])
    return {pos: Fraction(v) for pos, v in oracles.taylor_betti_entries(ideal).items() if v}


def make_workloads(smoke: bool = False) -> dict:
    """Every workload by name; ``smoke`` shrinks the random pass for self-tests."""
    return {
        "stabilize-p5": StabilizeWorkload(
            "stabilize-p5", 5, ("x1*x2", "x2*x3", "x3*x4", "x4*x5"), 8,
            reference_check=check_path_ideal_reference,
        ),
        "stabilize-chains": StabilizeWorkload(
            "stabilize-chains", 4, ("x1*x2*x3", "x2*x3*x4", "x1^3", "x4^3"), 6,
        ),
        "betti-random": BettiRandomWorkload(4 if smoke else RANDOM_IDEALS),
    }
