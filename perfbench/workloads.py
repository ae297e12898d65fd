"""The benchmark's four workloads: fixed job lists with a correctness judge per job.

A job's `run` is the timed call into rnramsey; whatever it returns, or the exception
it raises, goes to the job's `judge` after the timed region, which returns an
outcome (ok, exhausted or failed) and a note.  Every builder takes the freshly
imported package `rn` and looks functions up on it at call time, so the tracer's
wrappers are seen.  Builders write their input files under `inputs` and point CLI
jobs at `runs`, which the harness empties before every pass.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

OK, EXHAUSTED, FAILED = "ok", "exhausted", "failed"

# oracle-corpus draws its patterns at this fixed seed; --seed only orders the jobs.
# Templates have at most TEMPLATE_MAX vertices and parts at most PART_MAX.
CORPUS_SEED = 42
CORPUS_SIZE = 40
TEMPLATE_MAX = 2
PART_MAX = 2

# Artifacts of the recursion workload, recorded at the commit that added the
# benchmark.  A refactor must keep them byte-identical.
PICTURE_DIGEST = "98b6e6375f0378fa7f300b17bc240e5602cae8fe03806d71d8698f8c126b7d52"
PICTURE_BYTES = 308_176
FINISH_567_DIGEST = "f24d5cf528928c87cf1c0ab8bb7c473cb4aa3eeb7c47482c81b124a4f156b619"
MANIFEST_DIGESTS = {
    "tower-point-c2": "27fefd8698e7082774e501205ddd40f48deef02a2b14e1465584575854b7fd05",
    "tower-point-a2": "40a1cb49bdbed01a0d5a7cd11b3821bd393cafd74ceb05b6f8d42708c421e2ab",
    "tower-c2-c2": "b4aa573dfdb294c863701f74f2fd103d0121654b47ced1db64c7cb098e39c4ca",
    "tower-point-c2-stable": "bbf661b217a03fb31f69140c44d782a0e888dcbb03b021ab292cf767ad4b83ff",
}
FINISH_REPORT_DIGEST = "ce6954319fd08f72c1c319df6dfe4e4dd391686b2fe7fc42388d6327963932d8"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    judge: Callable[[object], tuple[str, str]]


def ceiling(rn, exc: BaseException) -> tuple[str, str]:
    """A documented count ceiling (nodes, copies, candidates, size, picture) is an
    exhausted outcome.  A wall-clock budget is not: it would make exhausted_ratio
    depend on machine speed, so it counts as failed, as does any other exception."""
    if isinstance(exc, (rn.ResourceExceeded, rn.NotFoundWithinBounds)):
        if "time budget" not in str(exc):
            return EXHAUSTED, str(exc)
        return FAILED, f"wall-clock budget: {exc}"
    return FAILED, f"undocumented {type(exc).__name__}: {exc}"


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli(rn, *argv) -> tuple[int, str, str]:
    """Run the command-line entry point in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = rn.cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def cli_ceiling(code: int, out: str, err: str) -> tuple[str, str]:
    """Exit 2 is the CLI's ceiling exit; the same wall-clock rule as `ceiling` applies."""
    reason = (out + err).strip().splitlines()[-1] if (out + err).strip() else ""
    if code == 2 and "time budget" not in reason:
        return EXHAUSTED, reason
    return FAILED, f"exit {code}: {reason}"


def complete_chain(rn, k: int):
    return rn.poset_to_complete_rn(rn.chain(k))


def write_inputs(rn, inputs: Path) -> dict[str, Path]:
    """The CLI input files: point, 2-chain, 2-antichain and the v poset."""
    inputs.mkdir(parents=True, exist_ok=True)
    shapes = {
        "point": rn.chain(1),
        "c2": rn.chain(2),
        "a2": rn.antichain(2),
        "v": rn.make_ordered_poset(3, {(0, 2), (1, 2)}),
    }
    files = {}
    for name, poset in shapes.items():
        files[name] = inputs / f"{name}.json"
        rn.save_structure(files[name], poset)
    return files


# ---------------------------------------------------------------------------
# arrow-ramsey


def arrow_job(rn, n: int, q: int, p: int, r: int, expect: str) -> Job:
    """check_arrow on chains; a FAILS verdict is replayed inside the timed job.

    expect is "holds", "fails", or "fails-or-budget" (HOLDS is wrong there).  The
    judge replays every counterexample itself, so a FAILS that does not replay to
    None is failed whatever the job's own replay said.
    """
    target, Q, P = complete_chain(rn, n), complete_chain(rn, q), complete_chain(rn, p)

    def run():
        verdict = rn.check_arrow(target, Q, P, r)
        replay = None
        if not verdict.holds:
            replay = rn.find_monochromatic(target, verdict.counterexample, Q, P)
        return verdict, replay

    def judge(value):
        if isinstance(value, BaseException):
            return ceiling(rn, value)
        verdict, replay = value
        if verdict.holds:
            if expect == "holds":
                return OK, f"HOLDS nodes={verdict.nodes_explored}"
            return FAILED, "HOLDS where the known answer is FAILS"
        if expect == "holds":
            return FAILED, "FAILS where the known answer is HOLDS"
        if verdict.counterexample is None:
            return FAILED, "FAILS without a counterexample"
        if replay is not None or rn.find_monochromatic(target, verdict.counterexample, Q, P):
            return FAILED, "counterexample has a monochromatic copy"
        return OK, f"FAILS nodes={verdict.nodes_explored}, replayed"

    return Job(f"chain({n})->(C{q})^C{p}_{r}", run, judge)


def arrow_ramsey(rn, seed: int, inputs: Path, runs: Path) -> list[Job]:
    return [
        arrow_job(rn, 13, 5, 1, 3, "holds"),
        arrow_job(rn, 12, 4, 3, 2, "fails-or-budget"),
        arrow_job(rn, 6, 3, 2, 2, "holds"),
        arrow_job(rn, 5, 3, 2, 2, "fails"),
    ]


# ---------------------------------------------------------------------------
# oracle-corpus


def random_partite(rn, rng: random.Random):
    """Random partite pattern over a random good complete template.

    Template: closure of random forward pairs (probability 0.4) over an identity or
    shuffled order on 1..TEMPLATE_MAX vertices.  Parts hold 0..PART_MAX vertices (at
    least one vertex overall); each cross pair between parts takes the template
    pair's relation with probability 0.5.
    """
    n = rng.randint(1, TEMPLATE_MAX)
    order = list(range(n))
    if rng.random() >= 0.5:
        rng.shuffle(order)
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos
    edges = {
        (x, y) for x in range(n) for y in range(n)
        if rank[x] < rank[y] and rng.random() < 0.4
    }
    closed = rn.transitive_closure(frozenset(edges), n)
    A = rn.poset_to_complete_rn(rn.make_ordered_poset(n, closed, order))
    sizes = [rng.randint(0, PART_MAX) for _ in range(A.n)]
    if sum(sizes) == 0:
        sizes[rng.randrange(A.n)] = 1
    parts, start = [], 0
    for size in sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    R, N = set(), set()
    for s in range(A.n):
        for t in range(s + 1, A.n):
            status = A.status(A.order[s], A.order[t])
            for x in parts[s]:
                for y in parts[t]:
                    if rng.random() < 0.5:
                        continue
                    (R if status == "R" else N).add((x, y))
    return rn.make_apartite(A, rn.make_rn_graph(start, R, N), parts)


def product_job(rn, index: int, pattern) -> Job:
    def run():
        return rn.product_construction(pattern.A, pattern, rn.BaseOracle(size_bound=8))

    def judge(result):
        if isinstance(result, BaseException):
            return ceiling(rn, result)
        F = result.apartite
        if not rn.is_good(F.base):
            return FAILED, "product base is not good"
        for lift in result.lifts:
            if not rn.is_embedding(lift.map, pattern.base, F.base):
                return FAILED, "a lift is not an embedding"
            if any(F.part_of[lift.map[v]] != pattern.part_of[v] for v in range(pattern.base.n)):
                return FAILED, "a lift moved a part"
        fused_a, fused_e = rn.fuse(pattern.A), rn.fuse(pattern.base)
        if not (result.certified and rn.check_arrow(result.base_witness, fused_e, fused_a, 2).holds):
            return FAILED, "base witness does not re-certify"
        return OK, f"witness n={result.base_witness.n} lifts={len(result.lifts)}"

    return Job(f"pattern-{index}", run, judge)


def oracle_corpus(rn, seed: int, inputs: Path, runs: Path) -> list[Job]:
    rng = random.Random(CORPUS_SEED)
    jobs = [product_job(rn, i, random_partite(rn, rng)) for i in range(CORPUS_SIZE)]
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# tower-v


def tower_v(rn, seed: int, inputs: Path, runs: Path) -> list[Job]:
    files = write_inputs(rn, inputs)
    out = runs / "tower-point-v"
    point, v = complete_chain(rn, 1), rn.poset_to_complete_rn(rn.load_structure(files["v"]))

    def run():
        return cli(rn, "tower", files["point"], files["v"], "--ell-max", 4, "--out", out)

    def judge(value):
        if isinstance(value, BaseException):
            return ceiling(rn, value)
        code, stdout, stderr = value
        if code != 0:
            return cli_ceiling(code, stdout, stderr)
        witness = rn.load_structure(out / "C2.json")
        if not rn.check_arrow(witness, v, point, 2).holds:
            return FAILED, "stage 2 witness does not certify"
        return OK, stdout.strip().splitlines()[-1]

    return [Job("tower point v --ell-max 4", run, judge)]


# ---------------------------------------------------------------------------
# recursion


def tower_job(rn, files, runs: Path, name: str, a: str, b: str, ell_max: int, expect: int) -> Job:
    out = runs / name

    def run():
        return cli(rn, "tower", files[a], files[b], "--ell-max", ell_max, "--no-stabilize",
                   "--out", out)

    def judge(value):
        if isinstance(value, BaseException):
            return ceiling(rn, value)
        code, stdout, stderr = value
        if code != expect:
            return FAILED, f"exit {code}, expected {expect}"
        if sha256_file(out / "manifest.txt") != MANIFEST_DIGESTS[name]:
            return FAILED, "manifest differs from the baseline"
        if code == 2:
            if name == "tower-point-c2" and "2772-vertex pattern" not in stdout:
                return FAILED, "truncation does not name the 2772-vertex pattern"
            return cli_ceiling(code, stdout, stderr)
        return OK, "manifest matches"

    return Job(f"tower {a} {b} --ell-max {ell_max} --no-stabilize", run, judge)


def recursion(rn, seed: int, inputs: Path, runs: Path) -> list[Job]:
    files = write_inputs(rn, inputs)
    point, c2, c3 = (complete_chain(rn, k) for k in (1, 2, 3))
    # The picture one round over chain(5) reaches (567 vertices); on the 3,159-vertex
    # picture of chain(6) the same finish scan takes over 13 s, so it stays at 5.
    one_round = rn.run_partite_construction(
        complete_chain(rn, 5), point, c2, rn.BaseOracle(), max_steps=1
    )
    picture_567 = one_round.picture.base
    stable = runs / "tower-point-c2-stable"
    picture_file = runs / "picture.json"

    def tower_and_finish():
        tower = cli(rn, "tower", files["point"], files["c2"], "--ell-max", 3, "--out", stable)
        return tower, cli(rn, "finish", stable)

    def judge_tower_and_finish(value):
        if isinstance(value, BaseException):
            return ceiling(rn, value)
        (code, _, _), (finish_code, report, _) = value
        if (code, finish_code) != (0, 0):
            return FAILED, f"exits {code}, {finish_code}"
        if "copies of B intact: all (3 of 3)" not in report:
            return FAILED, "finish lost a copy"
        if sha256_file(stable / "manifest.txt") != MANIFEST_DIGESTS["tower-point-c2-stable"]:
            return FAILED, "manifest differs from the baseline"
        if sha256_file(stable / "finish_report.txt") != FINISH_REPORT_DIGEST:
            return FAILED, "finish report differs from the baseline"
        return OK, "all copies intact"

    def construct_and_save():
        run = rn.run_partite_construction(
            c3, point, c2, rn.BaseOracle(), ell=3, allow_truncated=True
        )
        digest = rn.save_structure(picture_file, run.picture)
        return run, digest, rn.load_structure(picture_file)

    def judge_construct(value):
        if isinstance(value, BaseException):
            return ceiling(rn, value)
        run, digest, back = value
        if digest != PICTURE_DIGEST or rn.digest(run.picture) != PICTURE_DIGEST:
            return FAILED, "picture digest differs from the baseline"
        if picture_file.stat().st_size != PICTURE_BYTES:
            return FAILED, "picture file size differs from the baseline"
        if back != run.picture:
            return FAILED, "load_structure did not give the picture back"
        if [len(step.product.lifts) for step in run.steps] != [3, 462]:
            return FAILED, "lift counts differ from the baseline"
        if run.truncated is None:
            return FAILED, "the documented size-bound truncation did not happen"
        return EXHAUSTED, run.truncated

    def finish_567():
        return rn.finish_stage(picture_567, 5, c2)

    def judge_finish(result):
        if isinstance(result, BaseException):
            return ceiling(rn, result)
        counts = (result.b_copies_before, result.b_copies_intact, result.b_copies_after)
        if counts != (350, 350, 350):
            return FAILED, f"copy counts {counts}"
        if rn.digest(result.poset) != FINISH_567_DIGEST:
            return FAILED, "finished poset differs from the baseline"
        return OK, "350 copies intact"

    return [
        tower_job(rn, files, runs, "tower-point-c2", "point", "c2", 3, 2),
        tower_job(rn, files, runs, "tower-point-a2", "point", "a2", 3, 2),
        tower_job(rn, files, runs, "tower-c2-c2", "c2", "c2", 4, 0),
        Job("tower point c2 --ell-max 3 + finish", tower_and_finish, judge_tower_and_finish),
        Job("run_partite_construction(C3, point, C2) + save/load", construct_and_save,
            judge_construct),
        Job("finish_stage(567-vertex picture, 5, C2)", finish_567, judge_finish),
    ]


WORKLOADS = {
    "arrow-ramsey": arrow_ramsey,
    "oracle-corpus": oracle_corpus,
    "tower-v": tower_v,
    "recursion": recursion,
}

# The layers each workload's rationale predicts to hold the largest self time.  On
# recursion the is_embedding re-checks and the finish job's enumeration trade the
# lead between runs; construction's own gluing time is under 5% (see NOTES.md).
PREDICTED_LAYERS = {
    "arrow-ramsey": ("arrow",),
    "oracle-corpus": ("embeddings.enum",),
    "tower-v": ("embeddings.enum",),
    "recursion": ("embeddings.check", "embeddings.enum"),
}
