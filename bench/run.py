"""Known-answer benchmark of bargtop.

    python3 bench/run.py --workload {family,general,oracle,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout: bargtop is imported from the
checkout's ``src`` directory and from nowhere else, so without it the
command exits with an error.  Every workload builds one round of
operations from ``--seed``, runs it once to warm up, then repeats whole
rounds for ``--seconds`` seconds in this one process, with BLAS pinned to
one thread.  Each output is checked against an answer found apart from
the program (``corpus.py`` and ``checks.py``).

With ``--trace 0`` the last line of standard output is the JSON result
with every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric, from spans recorded around the calls into each layer
(``spans.py``).  ``README.md`` describes the workloads and the metrics.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import corpus as C  # noqa: E402
from spans import VALUE_CLASSES, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_run"

WORKLOADS = ("family", "general", "oracle", "cli")
#: seed of the fixed probe set (see ``build_probe``); never ``--seed``
PROBE_SEED = 4_242_001
RADII = (0.0, 1.0, 2.0, 4.0, 8.0)
FOCK_N = 60
QUADRATURE_ORDER = 60
QUADRATURE_REL_TOL = 1e-8
#: probe passes after each round; a cli round is long, so it gets more
PROBE_PASSES = {"family": 1, "general": 1, "oracle": 1, "cli": 3}
#: the share of --trace 1 time spent untraced, as the overhead reference
UNTRACED_SHARE = 1.0 / 3.0
CLI_TIMEOUT_S = 120


def load_program():
    """Import bargtop from the checkout's ``src`` only."""
    pkg = SRC / "bargtop"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"bench: no bargtop package under {SRC}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import bargtop

    if Path(bargtop.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"bench: bargtop was imported from {bargtop.__file__}, not {pkg}")
    return bargtop


@dataclass
class Op:
    """One operation: program calls (timed) and a check of their output."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    #: slice and expected verdict of the instance, as in ``corpus.Case.label``
    label: str
    known_fault: bool = False


@dataclass
class Samples:
    """Timings of one segment of the run."""

    done: dict = field(default_factory=lambda: defaultdict(list))
    #: per round: completed decisions per second spent in decide calls
    rates: list = field(default_factory=list)
    rounds: int = 0


@dataclass
class Outcome:
    """Counts and check results over the whole run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    faults: Counter = field(default_factory=Counter)
    fock_orders: list = field(default_factory=list)


class Context:
    """What the operations of one run share."""

    def __init__(self, bt, workload: str, seed: int):
        self.bt = bt
        self.workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.tracing = False
        self.cli_phases: list = []
        self.child_peak_kb = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self._files = 0
        self._spawner = None

    def write_instance(self, case) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._files += 1
        path = self.workdir / f"instance{self._files:03d}.json"
        path.write_text(json.dumps(instance_doc(case)))
        return path

    def spawn(self, argv) -> dict:
        """Run one process through the helper in ``spawner.py``."""
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, "-S", str(BENCH / "spawner.py")],
                env=self.env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        self._spawner.stdin.write(json.dumps(argv) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner helper exited")
        reply = json.loads(line)
        self.child_peak_kb = max(self.child_peak_kb, reply["maxrss_kb"])
        return reply

    def close(self):
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=CLI_TIMEOUT_S)
            self._spawner.stdout.close()
            self._spawner = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def _c(z):
    z = complex(z)
    return [z.real, z.imag]


def instance_doc(case) -> dict:
    """The instance file format of ``bargtop decide``."""

    def mat(m):
        return [[_c(z) for z in row] for row in m]

    return {
        "n": case.n,
        "phi0": {"hermitian": mat(case.H), "pluriharmonic": mat(case.S)},
        "q": {
            "xx": mat(case.qyy),
            "xxbar": mat(case.qyt),
            "xbarxbar": mat(case.qtt),
            "lin_x": [_c(z) for z in case.a],
            "lin_xbar": [_c(z) for z in case.b],
            "const": _c(case.q0),
        },
    }


# ---------------------------------------------------------------- operations
# Each call looks bargtop's functions up on the package at call time, so
# the wrappers of a traced run are the ones called.


def family_op(bt, case) -> Op:
    """Closed form plus both pipeline questions, as a caller asking both would."""
    p = bt.FamilyParams(case.lam, case.A, case.c, case.d)
    phi, q = bt.family_instance(p)

    def call():
        return bt.family_decide(p), bt.decide_boundedness(phi, q), bt.decide_compactness(phi, q)

    def check(out):
        fd, b, c = out
        problems = checks.verdicts(case, fd.bounded.value, fd.compact.value, fd.kernel_dim, "closed form")
        problems += checks.verdicts(case, b.verdict.value, c.verdict.value, b.kernel_dim)
        if c.kernel_dim != b.kernel_dim:
            problems.append(f"kernel dimensions {b.kernel_dim} and {c.kernel_dim} of the two questions differ")
        return problems

    return Op("decide", call, check, case.label)


def general_op(bt, case, known_fault=False) -> Op:
    phi = bt.WeightForm(case.H, case.S)
    q = bt.QuadraticSymbol(case.qyy, case.qyt, case.qtt, case.a, case.b, case.q0)

    def call():
        return bt.analyze(phi, q)

    def check(a):
        problems = checks.verdicts(case, a.bounded.value, a.compact.value, a.kernel_dim)
        problems += checks.routes(a.kappa.m, a.kappa.t, a.kappa_tilde.m, a.kappa_tilde.t)
        phi1 = None if a.phi1 is None else a.phi1.realified().s
        return problems + checks.positivity_gap(
            a.positivity.classification.value, a.reduced.realified().s, phi1
        )

    return Op("decide", call, check, case.label, known_fault)


def model_objects(bt, case):
    return bt.family_instance(bt.FamilyParams(case.lam, case.A, case.c, case.d))


def quadrature_ops(bt, case, points) -> list:
    """One op per point; the reference phase comes from the pipeline at set-up."""
    phi, q = model_objects(bt, case)
    a = bt.analyze(phi, q)
    plane = bt.LagrangianPlane(a.reduced)
    spec = bt.QuadratureSpec(order=QUADRATURE_ORDER, rel_tol=QUADRATURE_REL_TOL)
    ops = []
    for x in points:
        expected = complex(np.exp(1j * a.weyl.value(plane.point(x))))
        ops.append(
            Op(
                "quadrature",
                lambda x=x: bt.weyl_symbol_quadrature(phi, q, x, spec),
                lambda ratio, e=expected: checks.quadrature(ratio, e),
                case.label,
            )
        )
    return ops


def fock_op(bt, case) -> Op:
    _, q = model_objects(bt, case)
    return Op("fock", lambda: bt.fock_matrix(q, FOCK_N), lambda tr: checks.fock(case, tr.matrix), case.label)


def coherent_op(bt, case) -> Op:
    phi, q = model_objects(bt, case)
    f = bt.compute_f(phi, q)

    def check(out):
        exps, w0 = out
        points = [t * w0 for t in RADII]
        direct = [bt.coherent_norm_exponent(f, phi, w) for w in points]
        return checks.coherent(case, exps, direct, points)

    return Op("coherent", lambda: bt.coherent_growth_scan(phi, q, radii=RADII), check, case.label)


def cli_op(ctx: Context, case) -> Op:
    """One ``bargtop decide`` process on an instance file written at set-up."""
    path = ctx.write_instance(case)
    report = path.with_suffix(".report.json")
    phases = path.with_suffix(".phases.json")
    first: list = []

    def call():
        args = ["decide", "--input", str(path), "--output", str(report)]
        if ctx.tracing:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), "{spawn_ns}", str(phases)]
        else:
            cmd = [sys.executable, "-m", "bargtop.cli"]
        code = ctx.spawn(cmd + args)["code"]
        if ctx.tracing and code == 0:
            ctx.cli_phases.append(json.loads(phases.read_text()))
        return code

    def check(code):
        data = report.read_bytes() if code == 0 else b""
        report.unlink(missing_ok=True)
        problems = checks.cli_report(case, code, data, first[0] if first else None)
        if not first:
            first.append(data)
        return problems

    return Op("cli", call, check, case.label)


# ---------------------------------------------------------------- workloads


def build_family(ctx, rng) -> list:
    """Per n = 1, 2, 3: 6 bounded and 2 unbounded acceptance-1 draws, and the boundary pairs."""
    cases = [k for n in (1, 2, 3) for k in C.family_round(rng, n, bounded=6, unbounded=2)]
    return [family_op(ctx.bt, k) for k in cases]


def build_general(ctx, rng) -> list:
    """Per n = 1, 2, 3, 6: 6 bounded, 2 unbounded and the circle pair, moved; and the dilated slice."""
    cases = [k for n in (1, 2, 3, 6) for k in C.general_round(rng, n, bounded=6, unbounded=2)]
    ops = [general_op(ctx.bt, k) for k in cases]
    return ops + [general_op(ctx.bt, k, known_fault=True) for k in C.dilated_slice()]


def build_oracle(ctx, rng) -> list:
    """3 kinds x 2 Fock truncations, 3 x 4 quadrature points, 12 coherent scans."""
    bt = ctx.bt
    ops = []
    for draw in (C.fock_diagonal, C.fock_compact, C.fock_unbounded):
        ops += [fock_op(bt, draw(rng)) for _ in range(2)]
    for _ in range(3):
        case = C.quadrature_case(rng)
        ops += quadrature_ops(bt, case, [C.quadrature_point(rng) for _ in range(4)])
    for i in range(12):
        n = 1 + i % 2
        case = C.coherent_zero(rng, n) if i % 3 == 0 else C.draw_family(rng, n)
        ops.append(coherent_op(bt, case))
    return ops


def cli_cases(rng, family_n, general_n) -> list:
    """Instances for files: family then general, cycling through each round's make-up."""
    out = []
    for i, n in enumerate(family_n):
        out.append(C.family_round(rng, n, 1, 1)[i % 6])
    for i, n in enumerate(general_n):
        out.append(C.general_round(rng, n, 1, 1)[i % 4])
    return out


def build_cli(ctx, rng) -> list:
    """3 family and 3 general instance files, one process each."""
    cases = cli_cases(rng, family_n=(1, 2, 3), general_n=(2, 6, 3))
    return [cli_op(ctx, k) for k in cases]


BUILDERS = {"family": build_family, "general": build_general, "oracle": build_oracle, "cli": build_cli}


def build_probe(ctx, skip_kinds) -> list:
    """A fixed probe of the kinds of operation a workload does not run itself.

    It is drawn from PROBE_SEED, never from ``--seed``, and runs after
    every round, so that every run reports every end-to-end metric from
    samples spread over the whole run.  Each kind has one or three ops, so
    a median never falls between two unlike ones: decisions n = 2 bounded,
    n = 2 unbounded and n = 1 arc offset; three quadrature points (n = 1);
    coherent scans n = 1 with A = c = d = 0, n = 2 and n = 1; one Fock
    truncation (compact); one ``bargtop decide`` process.
    """
    rng = np.random.default_rng(PROBE_SEED)
    bt = ctx.bt
    strict = C.strict_draws(rng, 2, 1, 1)
    ops = [family_op(bt, k) for k in strict + [C.draw_arc(rng, 1, matched=False)]]
    ops += quadrature_ops(bt, C.quadrature_case(rng), [C.quadrature_point(rng) for _ in range(3)])
    scans = [C.coherent_zero(rng, 1), C.draw_family(rng, 2), C.draw_family(rng, 1)]
    ops += [coherent_op(bt, k) for k in scans]
    ops.append(fock_op(bt, C.fock_compact(rng)))
    if "cli" not in skip_kinds:
        ops.append(cli_op(ctx, strict[0]))
    return [op for op in ops if op.kind not in skip_kinds]


# ---------------------------------------------------------------- running


def run_ops(ops, outcome: Outcome, samples: Samples | None, count: bool, tracer: Tracer | None = None):
    """Run each op once; time it into ``samples`` unless that is None.

    Returns the completed decisions and the seconds spent in decide calls.
    """
    decided, busy = 0, 0.0
    for op in ops:
        if tracer is not None:
            tracer.begin_op(op.kind)
        t0 = time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception as exc:  # an operation that failed; counted, not fatal
            out, err = None, exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        if count:
            outcome.attempted += 1
        if op.kind == "decide":
            busy += dt
        if err is not None:
            if count:
                outcome.failed += 1
            tag = "" if op.known_fault else " (unexpected)"
            outcome.faults[f"{op.kind}: {type(err).__name__}: {err}{tag}"] += 1
            continue
        decided += op.kind == "decide"
        if samples is not None:
            samples.done[op.kind].append(dt)
        if op.kind == "fock" and tracer is not None:
            outcome.fock_orders.append(out.order)
        outcome.problems += [f"{op.kind} {op.label}: {p}" for p in op.check(out)]
    return decided, busy


def run_for(seconds: float, ops, probe, outcome: Outcome, tracer: Tracer | None = None) -> Samples:
    """Whole rounds of ``ops``, each followed by the probe, until ``seconds`` have passed.

    Only the rounds count as attempted operations, so the failed share of
    every run is that of one round.
    """
    samples = Samples()
    deadline = time.perf_counter() + seconds
    while samples.rounds == 0 or time.perf_counter() < deadline:
        d1, b1 = run_ops(ops, outcome, samples, count=True, tracer=tracer)
        d2, b2 = run_ops(probe, outcome, samples, count=False, tracer=tracer)
        samples.rates.append((d1 + d2) / (b1 + b2))
        samples.rounds += 1
    return samples


def p50_ms(values) -> float:
    if not values:
        raise SystemExit("bench: no completed operation to time")
    return statistics.median(values) * 1e3


def tail_line(name: str, values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 40:
        return f"{name}: p50 {p50_ms(values):.4f} ms ({n} samples, too few for a tail)"
    pct = int(100 * (1 - 10 / n))
    return (
        f"{name}: p50 {p50_ms(values):.4f} ms, p{pct} {np.percentile(values, pct) * 1e3:.4f} ms"
        f" ({n} samples)"
    )


KIND_METRIC = {
    "decide": "decide_ms_p50",
    "quadrature": "quadrature_ms_p50",
    "fock": "fock_ms_p50",
    "coherent": "coherent_ms_p50",
    "cli": "cli_decide_ms_p50",
}


def end_to_end(workload: str, setup_s: float, s: Samples, ctx: Context) -> dict:
    """The cli workload's peak is that of its ``bargtop decide`` processes."""
    if workload == "cli":
        peak_kb = ctx.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "decisions_per_s": (statistics.median(s.rates), "1/s"),
    }
    for kind, name in KIND_METRIC.items():
        out[name] = (p50_ms(s.done[kind]), "ms")
    return out


def per_layer(tracer: Tracer, main_kinds, traced: Samples, untraced: Samples, outcome: Outcome, ctx) -> dict:
    """Self times and counts per operation, from the spans of the traced segment."""
    dec = tracer.totals(["decide"])
    nd = tracer.ops("decide")

    def calls(tot, *names):
        return sum(tot[n][0] for n in names if n in tot)

    def self_ns(tot, *names):
        return sum(tot[n][1] for n in names if n in tot)

    out = {}
    for stage, name in (
        ("validate", "forms.validate_instance"),
        ("reduce", "forms.hermitian_reduction"),
        ("kernel_phase", "pipeline.compute_f"),
        ("kappa", "symplectic.build_kappa"),
        ("weyl_phase", "pipeline.compute_weyl_phase"),
        ("kappa_tilde", "symplectic.build_kappa_tilde"),
        ("image_plane", "symplectic.image_plane"),
        ("positivity", "symplectic.positivity_class"),
        ("kernel_test", "symplectic.intersection_kernel"),
    ):
        out[f"stage.{stage}_ms"] = (self_ns(dec, name) / nd / 1e6, "ms")
    out["pipeline.analyze_self_ms"] = (self_ns(dec, "pipeline.analyze") / nd / 1e6, "ms")
    out["pipeline.analyze_calls"] = (calls(dec, "pipeline.analyze") / nd, "count")

    # critical values also run inside the coherent scans of the oracle ops
    kinds = [k for k in main_kinds if k != "cli"] or ["decide"]
    sta = tracer.totals(kinds)
    nk = sum(tracer.ops(k) for k in kinds)
    out["stationary.critical_value_calls"] = (calls(sta, "stationary.critical_value") / nk, "count")
    out["stationary.critical_value_ms"] = (self_ns(sta, "stationary.critical_value") / nk / 1e6, "ms")

    out["linalg.svd_calls"] = (calls(dec, "linalg.spectral_norm", "linalg.smallest_singular_value") / nd, "count")
    out["linalg.solve_calls"] = (calls(dec, "linalg.solve") / nd, "count")
    out["linalg.eig_calls"] = (calls(dec, "linalg.eig_hermitian_real") / nd, "count")
    out["linalg.self_ms"] = (self_ns(dec, *[k for k in dec if k.startswith("linalg.")]) / nd / 1e6, "ms")
    forms_cls = [f"{m}.{c}" for m, c in VALUE_CLASSES if m == "forms"]
    sym_cls = [f"{m}.{c}" for m, c in VALUE_CLASSES if m == "symplectic"]
    out["forms.objects_built"] = (calls(dec, *forms_cls) / nd, "count")
    out["forms.construct_ms"] = (self_ns(dec, *forms_cls) / nd / 1e6, "ms")
    out["symplectic.maps_built"] = (calls(dec, "symplectic.AffineSymplecticMap") / nd, "count")
    out["symplectic.construct_ms"] = (self_ns(dec, *sym_cls) / nd / 1e6, "ms")
    out["family.decide_us"] = (self_ns(dec, "family.family_decide") / nd / 1e3, "us")

    quad, nq = tracer.totals(["quadrature"]), tracer.ops("quadrature")
    fock, nf = tracer.totals(["fock"]), tracer.ops("fock")
    coh, nc = tracer.totals(["coherent"]), tracer.ops("coherent")
    out["oracle.quadrature_ms"] = (self_ns(quad, "oracle.weyl_symbol_quadrature") / nq / 1e6, "ms")
    out["oracle.fock_order"] = (statistics.fmean(outcome.fock_orders), "nodes")
    out["oracle.fock_ms"] = (self_ns(fock, "oracle.fock_matrix") / nf / 1e6, "ms")
    out["oracle.exponent_form_calls"] = (calls(coh, "oracle.coherent_exponent_form") / nc, "count")
    out["oracle.exponent_form_ms"] = (self_ns(coh, "oracle.coherent_exponent_form") / nc / 1e6, "ms")

    for phase in ("interpreter", "import", "parse", "analyze", "report"):
        key = f"{phase}_ms"
        out[f"cli.{key}"] = (statistics.fmean(p[key] for p in ctx.cli_phases), "ms")

    overhead = p50_ms(traced.done["decide"]) - p50_ms(untraced.done["decide"])
    out["trace.overhead_ms"] = (overhead, "ms")
    return out


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bt = load_program()
    ctx = Context(bt, args.workload, args.seed)
    try:
        return measure(args, ctx)
    finally:
        ctx.close()


def measure(args, ctx: Context) -> int:
    # numpy seeds are non-negative; the modulus keeps every other seed as it is
    ops = BUILDERS[args.workload](ctx, np.random.default_rng(args.seed % 2**63))
    main_kinds = {op.kind for op in ops}
    probe_once = build_probe(ctx, main_kinds)
    probe = probe_once * PROBE_PASSES[args.workload]
    setup_s = time.perf_counter() - T_START

    outcome = Outcome()
    run_ops(ops, outcome, None, count=True)
    run_ops([op for op in probe_once if op.kind != "cli"], outcome, None, count=False)
    if args.trace:
        untraced = run_for(args.seconds * UNTRACED_SHARE, ops, probe, outcome)
        tracer = Tracer()
        tracer.install()
        ctx.tracing = True
        try:
            timed = run_for(args.seconds * (1 - UNTRACED_SHARE), ops, probe, outcome, tracer)
        finally:
            tracer.uninstall()
            ctx.tracing = False
        metrics = per_layer(tracer, main_kinds, timed, untraced, outcome, ctx)
        WORK.mkdir(parents=True, exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.dump(spans_path)
        print(f"spans: {len(tracer.name)} written to {spans_path.relative_to(ROOT)}")
        print(f"tracing overhead: {metrics['trace.overhead_ms'][0]:.4f} ms per decision (traced p50 - untraced p50)")
    else:
        timed = run_for(args.seconds, ops, probe, outcome)
        metrics = end_to_end(args.workload, setup_s, timed, ctx)

    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per round, {timed.rounds} timed rounds")
    makeup = Counter(f"{op.kind} {op.label}" for op in ops)
    print("  one round: " + ", ".join(f"{k} x{v}" for k, v in sorted(makeup.items())))
    for kind, name in KIND_METRIC.items():
        src = "main loop" if kind in main_kinds else "fixed probe"
        print(f"  {tail_line(name, timed.done[kind])} [{src}]")
    for fault, k in sorted(outcome.faults.items()):
        print(f"  failed x{k}: {fault}")
    for problem in outcome.problems[:20]:
        print(f"  INCORRECT: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
