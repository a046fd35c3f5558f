"""Command-line frontend.

Subcommands bind the library modules to reproducible JSON reports: every
report embeds the run configuration verbatim, names the arithmetic
regime of each numeric table and is byte-identical for identical inputs
and configuration.  A subcommand takes only the flags its handler reads
(`COMMANDS`), and its report's `config` holds exactly those settings,
input files excepted.  Exit codes: 0 success, 1 input or usage error
(an unknown flag included), 2 budget exceeded, 3 numerical failure.
"""

import argparse
import functools
import json
import random
import sys

from . import algebra, morspace, quantiso, quantization
from .graphs import (BudgetExceeded, ValidationError, group_from_spec,
                     parse_graph_file, provider_from_spec)

SCHEMA = "qgs/1"


def _read_text(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc))


def load_graph(path):
    return parse_graph_file(_read_text(path))


def _read_json(path, what):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError("%s file %s: %s" % (what, path, exc))


def load_provider(path, vertex_budget):
    return provider_from_spec(_read_json(path, "provider"), vertex_budget)


def load_group(path):
    return group_from_spec(_read_json(path, "group"))


def _target(args):
    """Finite graph or (provider, window) from the input flags."""
    if args.graph and args.provider:
        raise ValidationError("flag --graph conflicts with --provider")
    if args.graph:
        return load_graph(args.graph[0]), None
    if args.provider:
        provider = load_provider(args.provider, args.budget_vertices)
        return provider, {"radius": args.radius, "guard": 2}
    raise ValidationError("flag --graph or --provider is required")


def _vertex_key(v):
    return v if isinstance(v, str) else str(v)


def cmd_orbits(args):
    target, window = _target(args)
    orb = morspace.quantum_orbits(target, category=args.category,
                                  window=window)
    classes = [sorted(_vertex_key(v) for v in cls) for cls in orb.classes]
    return {"orbits": sorted(classes), "orbit_count": len(classes),
            "compact": bool(orb.compact), "category": orb.category,
            "exactness": orb.exactness,
            "matches_classical": orb.matches_classical,
            "window": window, "arithmetic": "exact-rational"}, 0


def cmd_dims(args):
    # Mor(n, m) is generated for n + m <= 4
    if not 0 <= args.depth <= 2:
        raise ValidationError("flag --depth of dims must be 0, 1 or 2, "
                              "not %d" % args.depth)
    target, window = _target(args)
    out = []
    for arity in range(args.depth + 1):
        basis = morspace.generate_mor(target, arity, arity,
                                      category=args.category, window=window)
        projections = morspace.minimal_projections(basis, tol=args.tol,
                                                   seed=args.seed)
        # the spectral order depends on the spanning set; sort canonically
        projections.sort(key=lambda p: (p.block is not None, p.block,
                                        p.d_left, p.d_right, p.exact))
        out.append({
            "arity": arity, "mor_dimension": len(basis.matrices),
            "projections": [{"block": list(p.block)
                             if p.block is not None else None,
                             "d_left": str(p.d_left),
                             "d_right": str(p.d_right),
                             "exact": bool(p.exact)}
                            for p in projections]})
    return {"dims": out, "tolerance": args.tol,
            "arithmetic": "exact-rational with float spectral fallback"}, 0


def cmd_mu(args):
    target, window = _target(args)
    mu = morspace.mu_assignment(target, window=window)
    table = {_vertex_key(v): str(val) for v, val in mu.mu.items()}
    return {"mu": dict(sorted(table.items())),
            "base_vertex": _vertex_key(mu.e),
            "cocycle_consistent": bool(mu.cocycle_ok),
            "window": window, "arithmetic": "exact-rational"}, 0


def cmd_haar_check(args):
    # words of length n_max = depth - 4 >= 1 need the ladder to level
    # depth + 1 = n_max + 5
    if args.depth < 5:
        raise ValidationError("flag --depth of haar-check must be at least "
                              "5, not %d" % args.depth)
    if not args.graph:
        raise ValidationError("flag --graph is required")
    g = load_graph(args.graph[0])
    if g.vertex_count == 0:
        # the Haar state is evaluated at base vertex 0
        raise ValidationError("haar-check needs a graph with a vertex")
    n_max = args.depth - 4
    hs = algebra.haar_system(g, category=args.category,
                             max_level=args.depth + 1)
    rng = random.Random(args.seed)
    worst_invariance = 0.0
    for e in range(g.vertex_count):
        worst_invariance = max(worst_invariance,
                               hs.left_invariance_residual(e, n_max=n_max))
    min_positivity = 0.0
    for _ in range(20):
        x = {}
        for _ in range(3):
            length = rng.randint(1, 2)
            i = tuple(rng.randrange(g.vertex_count) for _ in range(length))
            j = tuple(rng.randrange(g.vertex_count) for _ in range(length))
            algebra.add_into(x, algebra.word(i, j, rng.choice((1, -1))))
        val = hs.phi_e(algebra.word_mul(x, algebra.word_star(x)), 0)
        min_positivity = min(min_positivity, val)
    delta = algebra.delta_checks(g, 0, g.vertex_count - 1,
                                 category=args.category,
                                 max_level=hs.max_level)
    residuals = {"left_invariance": worst_invariance,
                 "modular": delta["modular_residual"],
                 "base_change": delta["base_change_residual"],
                 "positivity_defect": max(0.0, -min_positivity)}
    ok = all(v <= args.tol for v in residuals.values())
    classical = hs.auts is not None
    report = {"residuals": residuals, "tolerance": args.tol,
              "max_word_length": n_max, "level": hs.max_level,
              "unimodular": delta["unimodular"],
              "positivity_samples": 20, "seed": args.seed,
              # the certificate of category "all" is about Aut(G) itself,
              # so only the planar one decides quantum symmetry
              "quantum_symmetry": (False if classical
                                   and args.category == "planar" else None),
              "arithmetic": ("float64 on exact Aut-orbit counts" if classical
                             else "float64 on exact integer Gram data"),
              "passed": ok}
    return report, 0 if ok else 3


def cmd_planar_iso(args):
    if not args.graph or len(args.graph) != 2:
        raise ValidationError("flag --graph must be given exactly twice")
    g1 = load_graph(args.graph[0])
    g2 = load_graph(args.graph[1])
    verdict = quantiso.planar_iso_test(g1, g2, depth=args.depth)
    report = {"status": verdict.status, "depth": verdict.depth,
              "arithmetic": "exact-integer counts"}
    if verdict.bijection is not None:
        report["class_bijection"] = [[sorted(map(_vertex_key, a)),
                                      sorted(map(_vertex_key, b))]
                                     for (a, b) in verdict.bijection]
    if verdict.witness is not None:
        w = verdict.witness
        report["witness"] = {
            "pattern_vertices": None, "pattern_edges": None,
            "basepoint": w["basepoint"],
            "orbit1": sorted(map(_vertex_key, w["orbit1"])),
            "orbit2": sorted(map(_vertex_key, w["orbit2"])),
            "count1": w["count1"], "count2": w["count2"]}
        if w["pattern"] is not None:    # else the counts are class sizes
            report["witness"]["pattern_vertices"] = w["pattern"].vertex_count
            report["witness"]["pattern_edges"] = [
                list(e) for e in w["pattern"].undirected_edges()]
    return report, 0


def cmd_quantize(args):
    if not args.group:
        raise ValidationError("flag --group is required")
    spec = load_group(args.group)
    names = {spec.key(el): name for (name, el) in spec.generators}

    def tuple_names(t):
        return [names[spec.key(el)] for el in t]

    symmetric = spec.generating_set_symmetric()
    supports = []
    if symmetric:
        plain = quantization.relation_vectors(spec, args.nmax)
        for rs in plain:
            supports.append({"n": rs.n, "epsilon": None,
                             "size": len(rs),
                             "support": sorted(map(tuple_names, rs.support))})
        rotation = quantization.cyclic_rotation_report(plain)
        rotation = {str(k): v for k, v in rotation.items()}
    else:
        for rs in quantization.signed_relation_vectors(spec, args.nmax):
            supports.append({"n": rs.n, "epsilon": list(rs.epsilon),
                             "size": len(rs),
                             "support": sorted(map(tuple_names, rs.support))})
        rotation = None
    report = {"group": {"variant": spec.variant,
                        "generators": sorted(names.values()),
                        "symmetric": symmetric},
              "n_max": args.nmax, "relation_supports": supports,
              "cyclic_rotation_closed": rotation,
              "arithmetic": "exact"}
    return report, 0


def _positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive, not %s" % text)
    return value


# Every flag's argparse spec, once.
FLAGS = {
    "--graph": {"action": "append",
                "help": "finite graph file (repeatable for planar-iso)"},
    "--provider": {"help": "provider spec JSON file"},
    "--group": {"help": "group spec JSON file"},
    "--category": {"default": "planar", "choices": ("planar", "all")},
    "--depth": {"type": int, "default": 6},
    "--radius": {"type": int, "default": 4},
    "--tol": {"type": _positive, "default": 1e-9},
    "--seed": {"type": int, "default": 0},
    "--out": {"help": "output path (default: stdout)"},
    "--budget-vertices": {"type": int, "default": 20000},
    "--nmax": {"type": int, "default": 4},
}
# inputs, not settings: left out of a report's config
INPUT_FLAGS = ("--graph", "--provider", "--group")
# what `_target` reads and the output path
_TARGET = ("--graph", "--provider", "--radius", "--budget-vertices",
           "--out")
# Per subcommand: its handler, the flags it reads and the defaults in
# which it differs from FLAGS.
COMMANDS = {
    "orbits": (cmd_orbits, _TARGET + ("--category",), {}),
    "dims": (cmd_dims, _TARGET + ("--category", "--depth", "--tol",
                                  "--seed"), {"depth": 2}),
    "mu": (cmd_mu, _TARGET, {}),
    "haar-check": (cmd_haar_check, ("--graph", "--category", "--depth",
                                    "--tol", "--seed", "--out"), {}),
    "planar-iso": (cmd_planar_iso, ("--graph", "--depth", "--out"), {}),
    "quantize": (cmd_quantize, ("--group", "--nmax", "--out"), {}),
}


@functools.cache     # the parser depends on no input
def build_parser():
    parser = argparse.ArgumentParser(
        prog="qgs",
        description="quantum graph symmetry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(COMMANDS):
        _, flags, defaults = COMMANDS[name]
        p = sub.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


def run_config(args):
    """The settings the command takes, as parsed."""
    keys = (flag[2:].replace("-", "_") for flag in COMMANDS[args.command][1]
            if flag not in INPUT_FLAGS)
    return {key: getattr(args, key) for key in keys}


def render(report, args):
    doc = {"schema": SCHEMA, "command": args.command,
           "config": run_config(args)}
    doc.update(report)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; exit 2 is kept for budgets
        return 0 if exc.code == 0 else 1
    try:
        report, code = COMMANDS[args.command][0](args)
    except ValidationError as exc:
        print("qgs: %s" % exc, file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print("qgs: budget exceeded: %s" % exc, file=sys.stderr)
        return 2
    text = render(report, args)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            print("qgs: cannot write %s: %s" % (args.out, exc),
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
