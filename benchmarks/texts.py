"""One sha256 per generated text, so that "the generated code is
byte-identical" is one diff of this script's output between two trees.

For each Lagrangian below it prints one line per text

  <label> <text> <sha256 of the text>

where <text> is:

  * batched: kernels.generate_source, the batched kernel's text;
  * solve:   kernels.generate_solve_source, the fused acceleration terms;
  * python:  rk4loop.generate_step_source, the RK4 loop in Python;
  * c:       rk4loop.generate_step_source with the dialect lowering.C,
             the same loop in C;
  * probes:  native.generate_probe_source, the batched kernel's probe
             loop in C, of its full contract (kernels.FULL); only where
             every record may be written in C (no exp, log, tan or
             power other than a square).

The loops are written for n <= 3 only; the Lagrangians here all have
n <= 3.  The Lagrangians are every bundled system's, in each of its
charts; its shift by each of its configured gauge functions chi, in its
default chart; and a fixed list of edge cases (EDGES): literal, mixed
and full velocity Hessians with n = 1, 2 and 3, powers, sign, abs and a
general exponent.  Then two lines, labelled charged-forced, are the
python and c loops of the charged particle under the forcing FORCING,
whose values they inline.

The library's tables of literal seeds follow, each as the text of its
batched kernel (lowering.numpy_kernel of the table's records) and, where
every record may be written in C, its probe loop of all its outputs:

  * lagrangian, lagrangian-probes: kernels._lagrangian of every
    Lagrangian above, in the same order;
  * gradient, gradient-probes: kernels._gradient of the same;
  * jet, jet-probes: kernels._jet of each coordinate of every bundled
    system's curve, labelled <system>-curve<segment>.<coordinate>;
  * jet, jet-probes again: the jet table of the shape (the tape that
    kernels.read_table runs, its literals lifted to parameter columns)
    of a coordinate of the variation fields VANISHING and GENERAL along
    every bundled system's curve, labelled <system>-vanishing and
    <system>-general.

Nothing is compiled, so no C compiler is needed.

Run:  PYTHONPATH=src python benchmarks/texts.py
"""
import hashlib

from avcalc import kernels, lowering, native, rk4loop
from avcalc.dynamics import gauge_shift, lagrangian_varnames
from avcalc.exprlang import parse
from avcalc.systems import bundled_system, bundled_system_names

# (label, Lagrangian over x1..xn, v1..vn, n)
EDGES = (
    ("literal-1", "0.5*v1^2 - 0.5*x1^2 + sin(x1)*v1", 1),
    ("full-1", "0.5*(1 + x1^2)*v1^2 + exp(-x1)*v1", 1),
    ("literal-2", "0.5*(2*v1^2 + v2^2) + 0.3*v1*v2 + x1*v2 - cos(x2)", 2),
    ("mixed-2", "0.5*v1^2 + 0.5*exp(x1)*v2^2 + 0.2*v1*v2 - cos(x2)", 2),
    ("full-2", "0.5*(1 + x2^2)*v1^2 + 0.5*(2 + sin(x1))*v2^2 + 0.1*x1*v1*v2", 2),
    ("literal-3", "0.5*(v1^2 + 2*v2^2 + 3*v3^2) + 0.3*v1*v2 + 0.5*(x1*v2 - x2*v1)", 3),
    ("mixed-3", "0.5*v1^2 + 0.5*(1 + x1^2)*v2^2 + 0.5*v3^2 + 0.2*x3*v1*v3", 3),
    ("full-3", "0.5*(v1^2 + 2*v2^2 + 3*v3^2) + 0.3*v1*v2 + 0.2*x1*v2*v3"
               " + 0.1*cos(x2)*v1*v3 + 0.5*(x1*v2 - x2*v1)", 3),
    ("powers", "0.5*v1^2 + 0.25*v1^4 + x1^3*v1 - x1^(-2) + (1 + x1^2)^1.5", 1),
    ("sign-abs", "0.5*(v1^2 + v2^2) + sign(x1)*v2 + abs(x2)*v1 + abs(v1)*x2 - sign(v2)", 2),
    ("general-exponent", "0.5*(v1^2 + v2^2) + x1^x2*v2 + (2 + x2^2)^v1 - sqrt(1 + x1^2)", 2),
    ("tan-log", "0.5*v1^2*(1 + log(1 + x1^2)) + tan(0.1*x1)*v1", 1),
)

# a variation field's coordinate along a curve from a to b, vanishing at
# both ends, and a general one, as avbench's action workload draws them
VANISHING = "(t-({a!r}))*(({b!r})-t)*((0.1)+(-0.2)*t+(0.25)*t^2)"
GENERAL = "(0.1)+(-0.2)*t+(0.25)*t^2"

# a drag in the plane of the orbit and a push along B
FORCING = ("-0.1*v1", "-0.1*v2", "0.01*sin(x1)")

TEXTS = {
    "batched": kernels.generate_source,
    "solve": kernels.generate_solve_source,
    "python": rk4loop.generate_step_source,
    "c": lambda ast, names, forcing=(): rk4loop.generate_step_source(ast, names, forcing,
                                                                     lowering.C),
}


def lagrangians():
    """(label, expression, n) of every Lagrangian this script renders."""
    for name in bundled_system_names():
        system = bundled_system(name)
        for chart in system.atlas.charts:
            yield f"{name}[{chart.id}]", system.lagrangian.expr(chart.id), system.dim
        for k, chi in enumerate(system.chis):
            twin = gauge_shift(system.lagrangian, chi)
            yield f"{name}+chi{k}", twin.expr(system.default_chart()), system.dim
    for label, text, n in EDGES:
        yield label, parse(text), n


def show(label: str, text: str, source: str) -> None:
    print(f"{label} {text} {hashlib.sha256(source.encode()).hexdigest()}")


def main() -> int:
    for label, ast, n in lagrangians():
        names = lagrangian_varnames(n)
        for text, generate in TEXTS.items():
            show(label, text, generate(ast, names))
        probes = native.generate_probe_source(ast, names, kernels.FULL)
        if probes is not None:
            show(label, "probes", probes)
    charged = bundled_system("charged").lagrangian.expr("0")
    forcing = tuple(map(parse, FORCING))
    for text in ("python", "c"):
        show("charged-forced", text, TEXTS[text](charged, lagrangian_varnames(3), forcing))
    for label, ast, n in lagrangians():
        for table in ("lagrangian", "gradient"):
            show_table(label, table, ast, lagrangian_varnames(n))
    for name in bundled_system_names():
        for i, segment in enumerate(bundled_system(name).curve.segments):
            for j, coordinate in enumerate(segment.exprs):
                show_table(f"{name}-curve{i}.{j}", "jet", coordinate, ("t",))
    for name in bundled_system_names():
        curve = bundled_system(name).curve
        for label, field in (("vanishing", VANISHING), ("general", GENERAL)):
            text = field.format(a=curve.t_start, b=curve.t_end)
            shape, layout, _params = kernels._jet_binding(parse(text), ("t",))
            show_table(f"{name}-{label}", "jet", parse(shape), layout)
    return 0


def show_table(label: str, table: str, ast, names) -> None:
    """The lines of the kernels table _<table> of ast: its batched
    kernel's text, then its probe loop of every output where it has one."""
    inputs, records, results = getattr(kernels, f"_{table}")(ast, names)
    show(label, table, lowering.numpy_kernel(inputs, records, results))
    found = native._probe_loop(f"_{table}", ast, names, tuple(range(len(results))))
    if found is not None:
        show(label, f"{table}-probes", found[0])


if __name__ == "__main__":
    raise SystemExit(main())
