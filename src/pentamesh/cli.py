"""Command-line interface.

Subcommands::

    pentamesh mesh <points.p4m|csv> [--metric identity|speed:c0,beta]
                   [--nb 22|23|24] [--audit] [-o mesh.p4m]
    pentamesh quality <mesh.p4m> [--heuristic 1|2|3] [--metric ...] [-o csv]
    pentamesh improve <mesh.p4m> [--heuristic 1|2|3] [--metric ...]
                      [-o csv] [--mesh-out improved.p4m]
    pentamesh study convergence|predicates|flips [--seed N] [--levels K]
                    [--dims 2,3,4,...] [-o csv]
    pentamesh export <mesh.p4m> --format p4m|tet3 -o <path>

All tabular output is UTF-8 CSV; the exit code is nonzero when an audit
reports violations.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext

from . import meshio
from .flips import improve_quality
from .geometry import MetricField
from .insertion import audit_delaunay, triangulate
from .quality import quality_metric
from .studies import (
    convergence_study,
    predicate_comparison_study,
    quality_study,
    write_csv,
)


def parse_metric(spec: str) -> MetricField:
    """'identity' or 'speed[:c0[,beta[,center]]]' with finite parameters; else an argument error."""
    if spec == "identity":
        return MetricField.identity()
    name, _, params = spec.partition(":")
    if name == "speed":
        try:
            vals = [float(x) for x in params.split(",") if x]
        except ValueError:
            vals = None
        if vals is not None and not all(map(math.isfinite, vals)):
            raise argparse.ArgumentTypeError(f"metric {spec!r} has a non-finite parameter")
        if vals is not None and len(vals) <= 3:
            return MetricField.speed(*vals)
    raise argparse.ArgumentTypeError(
        f"unknown metric {spec!r}; use 'identity' or 'speed:c0,beta[,center]'")


def _write_tables(path, *tables) -> None:
    """Write CSV tables, a blank line apart, to ``path`` or stdout.

    The file is opened only once the rows exist, and closed on every path.
    """
    with (open(path, "w", encoding="utf-8", newline="") if path
          else nullcontext(sys.stdout)) as out:
        for i, rows in enumerate(tables):
            if i:
                out.write("\n")
            write_csv(rows, out)


def cmd_mesh(args) -> int:
    points = meshio.load_points(args.points)
    mesh = triangulate(points, args.metric, n_b=args.nb, margin=args.margin,
                       strip_super=not args.keep_super, skip_duplicates=True)
    if args.output:
        meshio.save_p4m(mesh, args.output)
    else:
        sys.stdout.write(meshio.dumps_p4m(mesh))
    if args.audit:
        report = audit_delaunay(mesh, args.metric)
        print(f"audit: {len(report.violations)} violations "
              f"over {report.n_checked} pairs", file=sys.stderr)
        if report.violations:
            return 1
    return 0


def cmd_quality(args) -> int:
    mesh = meshio.load_p4m(args.mesh)
    column = f"eta{args.heuristic}"
    rows = [{"element": eid, column: quality_metric(mesh.element_points(eid), args.metric,
                                                    which=args.heuristic)}
            for eid in mesh.alive_elements()]
    _write_tables(args.output, rows)
    qs = [r[column] for r in rows]
    if qs:
        print(f"elements {len(qs)}  min {min(qs):.6f}  mean {sum(qs)/len(qs):.6f}",
              file=sys.stderr)
    return 0


def cmd_improve(args) -> int:
    mesh = meshio.load_p4m(args.mesh)
    problems = mesh.validate()
    if problems:
        print("input mesh is invalid: " + "; ".join(problems[:5]), file=sys.stderr)
        return 1
    rep = improve_quality(mesh, heuristic=args.heuristic, field=args.metric,
                          include_point_inserting=not args.no_point_flips)
    row = {"heuristic": rep.heuristic, **rep.as_row()}
    for kind in sorted(rep.flips_by_kind):
        row[f"flips_{kind}"] = rep.flips_by_kind[kind]
    _write_tables(args.output, [row])
    if args.mesh_out:
        meshio.save_p4m(mesh, args.mesh_out)
    return 0


def cmd_study(args) -> int:
    if args.which == "convergence":
        rows = []
        metrics = (["identity", "speed"] if args.metric_mode == "both"
                   else [args.metric_mode])
        for metric in metrics:
            res = convergence_study(levels=args.levels, seed=args.seed,
                                    metric=metric, refine=args.refine,
                                    h_exponent=args.h_exponent, margin=args.margin)
            for r in res.rows:
                rows.append({"metric": metric, **r})
        tables = [rows]
    elif args.which == "predicates":
        dims = tuple(int(x) for x in args.dims.split(","))
        tables = [predicate_comparison_study(dims=dims, trials=args.trials,
                                             seed=args.seed, exact=args.exact)]
    else:  # flips
        sizes = tuple(int(x) for x in args.sizes.split(","))
        tables = quality_study(sizes=sizes, heuristic=args.heuristic, seed=args.seed)
    _write_tables(args.output, *tables)
    return 0


def cmd_export(args) -> int:
    mesh = meshio.load_p4m(args.mesh)
    meshio.export_mesh(mesh, args.output, fmt=args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentamesh",
        description="Anisotropic Delaunay pentatope meshing for space-time domains")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="triangulate a point cloud")
    p.add_argument("points", help="p4m file (vertices used) or 4-column csv")
    p.add_argument("--metric", type=parse_metric, default=MetricField.identity())
    p.add_argument("--nb", type=int, choices=(22, 23, 24), default=24)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--audit", action="store_true")
    p.add_argument("--keep-super", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("quality", help="per-element quality heuristics")
    p.add_argument("mesh")
    p.add_argument("--heuristic", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--metric", type=parse_metric, default=MetricField.identity())
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("improve", help="greedy bistellar-flip quality improvement")
    p.add_argument("mesh")
    p.add_argument("--heuristic", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("--metric", type=parse_metric, default=MetricField.identity())
    p.add_argument("--no-point-flips", action="store_true")
    p.add_argument("--mesh-out")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("study", help="run a study and emit CSV")
    p.add_argument("which", choices=("convergence", "predicates", "flips"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--refine", type=float, default=1.5)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--metric-mode", choices=("identity", "speed", "both"),
                   default="both")
    p.add_argument("--h-exponent", type=float, default=-1.0 / 3.0,
                   help="spacing exponent; -1/4 is the volume-scaling alternative")
    p.add_argument("--dims", default="2,3,4,5,10")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--sizes", default="50,100,150,200,250,300")
    p.add_argument("--heuristic", type=int, choices=(1, 2, 3), default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("export", help="convert a mesh file")
    p.add_argument("mesh")
    p.add_argument("--format", choices=("p4m", "tet3"), default="p4m")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
