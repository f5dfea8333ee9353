import argparse
import ast
import csv
import gc
import importlib
import io
import math
import os
import pathlib
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import pentamesh
from pentamesh import studies
from pentamesh.flips import improve_quality
from pentamesh.insertion import triangulate
from pentamesh.meshio import (
    MeshFormatError,
    dumps_p4m,
    dumps_tet3,
    load_p4m,
    load_points,
    loads_p4m,
    project_to_3d,
)
from pentamesh.pointsets import generate_hypercylinder_points, sphere_spiral_points
from pentamesh.quality import pentatope_quality
from pentamesh.studies import (
    convergence_study,
    hypercylinder_exact_hypervolume,
    predicate_comparison_study,
    quality_study,
    write_csv,
)
from pentamesh.bounding import build_bounding_mesh
from pentamesh.cli import main as cli_main


def test_every_module_export_resolves():
    # a name deleted from a module must leave its __all__ too
    stale, checked = [], 0
    for info in pkgutil.iter_modules(pentamesh.__path__):
        module = importlib.import_module(f"pentamesh.{info.name}")
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                stale.append(f"{info.name}.{name}")
    assert checked and stale == []


def _env_with_src():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(pathlib.Path(pentamesh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_loads_neither_scipy_nor_hypothesis():
    # the benchmark times a fresh-interpreter import and reads memory before
    # it loads scipy; both are for tests and oracles only
    code = ("import sys, pentamesh; "
            "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'hypothesis'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, less those on a line marked ``# noqa``.

    A name counts as read where it appears as an identifier or in ``__all__``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for name in [(alias.asname or alias.name).split(".")[0]]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]]


def test_unused_imports_flags_and_exempts():
    source = ("from __future__ import annotations\nimport os\nimport sys  # noqa: F401\n"
              "import numpy.linalg\nfrom a import (\n    b,\n    c,  # noqa\n    d,\n)\n"
              "__all__ = ['d']\nprint(b, numpy)\n")
    assert unused_imports(source) == ["os"]
    assert unused_imports("from a import b, c\nb()\n") == ["c"]


def test_no_module_imports_a_name_it_never_uses():
    # no linter is installed; a name kept for an outside reader carries # noqa
    package = pathlib.Path(pentamesh.__file__).parent
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    assert len(found) > 5
    assert {name: names for name, names in found.items() if names} == {}


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter of a ``def`` in ``source`` that
    its body never reads, less ``*args``, ``**kwargs`` and those on a line
    marked ``# noqa``.  A nested function's read counts for its encloser."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found += [f"{node.name}.{arg.arg}"
                      for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                      if arg.arg not in read and "# noqa" not in lines[arg.lineno - 1]]
    return found


def test_unused_parameters_flags_and_exempts():
    source = ("def f(a, b, *args, c, d=1, **kwargs):\n    return a + (lambda x: d)(0)\n"
              "def g(e,  # noqa\n      h):\n    def inner():\n        return h\n    return inner\n"
              "f2 = lambda unused: 0\n")
    assert unused_parameters(source) == ["f.b", "f.c"]


def test_no_def_has_a_parameter_it_never_reads():
    # a parameter left behind when its last use goes is a lie about what a
    # call depends on; a signature fixed by its caller carries # noqa
    package = pathlib.Path(pentamesh.__file__).parent
    found = {path.name: unused_parameters(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert len(found) > 5
    assert {name: params for name, params in found.items() if params} == {}


def private_name_reach(sources: dict[str, str]) -> tuple[int, list[str]]:
    """How many module-level private names ``sources`` (module -> source)
    define, and ``module.name`` for each that no module reads outside its
    own definition.

    A definition is a top-level ``def``, ``class`` or assignment; dunder
    names are exempt.  A read is a loaded identifier, resolved through the
    module's relative ``from . import``s, that lies in another module or
    outside the lines of the statement that binds the name.
    """
    defined, origin, reads = [], {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                origin.update({(module, a.asname or a.name): node.module for a in node.names})
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno, node.end_lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        reads |= {(origin.get((module, n.id), module), n.id, module, n.lineno)
                  for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return len(defined), [
        f"{module}.{name}" for module, name, first, last in defined
        if not any((owner, read) == (module, name)
                   and (where != module or not first <= line <= last)
                   for owner, read, where, line in reads)]


def test_private_name_reach_flags_and_exempts():
    sources = {
        "a": ("_used = 1\n_self_only = 2\n_lonely: int = 3\n__dunder__ = 4\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "def _imported():\n    return _used\nclass _Read:\n    pass\n"),
        "b": ("from .a import _imported\nfrom .c import _read_elsewhere\n"
              "_imported(); _Read(); _read_elsewhere\n"),
        "c": "_read_elsewhere = 5\n_self_only = _self_only\n",
    }
    assert private_name_reach(sources) == (8, ["a._self_only", "a._lonely", "a._recursive",
                                               "a._Read", "c._self_only"])


def test_every_private_name_is_read_in_src():
    # a private name only its own definition reaches is dead code; tests and
    # the benchmark's tracer do not count as readers
    package = pathlib.Path(pentamesh.__file__).parent
    count, unreached = private_name_reach({path.stem: path.read_text(encoding="utf-8")
                                           for path in sorted(package.glob("*.py"))})
    assert count > 50
    assert unreached == []


class TestProjection:
    def test_origin(self):
        assert project_to_3d((0, 0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_pure_time(self):
        x = 1.0 / math.sqrt(3.0)
        assert project_to_3d((0, 0, 0, 1)) == pytest.approx((x, x, x))

    def test_zero_time(self):
        assert project_to_3d((1, 2, 3, 0)) == pytest.approx((1.0, 2.0, 3.0))


class TestP4M:
    def test_roundtrip_byte_identical(self, rng):
        mesh = triangulate(rng.random((12, 4)))
        text = dumps_p4m(mesh)
        again = dumps_p4m(loads_p4m(text))
        assert text == again

    def test_roundtrip_preserves_data(self, rng):
        mesh = triangulate(rng.random((10, 4)))
        back = loads_p4m(dumps_p4m(mesh))
        assert back.vertices == mesh.compact().vertices
        assert ([e for e in back.elements if e is not None]
                == [e for e in mesh.compact().elements if e is not None])

    def test_bad_index_names_line(self):
        text = "p4m 1\nvertices 2\n0 0 0 0\n1 0 0 0\npentatopes 1\n0 1 2 3 9\n"
        with pytest.raises(MeshFormatError) as err:
            loads_p4m(text)
        assert err.value.line == 6

    def test_bad_header(self):
        with pytest.raises(MeshFormatError) as err:
            loads_p4m("p5m 1\n")
        assert err.value.line == 1

    def test_truncated(self):
        with pytest.raises(MeshFormatError):
            loads_p4m("p4m 1\nvertices 3\n0 0 0 0\n")

    PENTATOPE = "p4m 1\nvertices 5\n0 0 0 0\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"

    def test_negative_counts_name_their_line(self):
        with pytest.raises(MeshFormatError) as err:
            loads_p4m(self.PENTATOPE + "pentatopes -1\n")
        assert err.value.line == 8
        with pytest.raises(MeshFormatError) as err:
            loads_p4m("p4m 1\nvertices -1\npentatopes 0\n")
        assert err.value.line == 2

    def test_lines_beyond_the_declared_count_name_their_line(self):
        text = self.PENTATOPE + "pentatopes 1\n0 1 2 3 4\n"
        assert loads_p4m(text + "\n  \n").n_alive == 1  # blank trailing lines are fine
        with pytest.raises(MeshFormatError) as err:
            loads_p4m(text + "\n0 1 2 4 3\n")
        assert err.value.line == 11


class TestTet3:
    def test_super_mesh_has_120_tets(self, rng):
        mesh = build_bounding_mesh(rng.random((3, 4)))
        text = dumps_tet3(mesh)
        lines = text.splitlines()
        assert lines[0] == "tet3 1"
        ntets = int([ln for ln in lines if ln.startswith("tets ")][0].split()[1])
        assert ntets == 120

    def test_projected_coordinates(self, rng):
        mesh = triangulate(rng.random((8, 4)))
        text = dumps_tet3(mesh)
        lines = text.splitlines()
        nv = int(lines[1].split()[1])
        first = tuple(float(x) for x in lines[2].split())
        assert first == pytest.approx(project_to_3d(mesh.compact().vertices[0]))
        assert nv == mesh.n_vertices


class TestLoadPoints:
    def test_csv(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("0,0,0,0\n1, 2, 3, 4\n# comment\n0.5 0.5 0.5 0.5\n")
        pts = load_points(str(path))
        assert pts == [(0, 0, 0, 0), (1, 2, 3, 4), (0.5, 0.5, 0.5, 0.5)]

    def test_p4m_vertices(self, rng, tmp_path):
        mesh = triangulate(rng.random((7, 4)))
        path = tmp_path / "mesh.p4m"
        path.write_text(dumps_p4m(mesh))
        pts = load_points(str(path))
        assert len(pts) == 7

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1 2 3\n")
        with pytest.raises(MeshFormatError):
            load_points(str(path))

    def test_pathlib_path(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("0 0 0 0\n1 2 3 4\n")
        assert load_points(path) == [(0, 0, 0, 0), (1, 2, 3, 4)]

    def test_closes_the_file(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("0 0 0 0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            load_points(str(path))
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_open_file(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("0 0 0 0\n")
        with open(path, encoding="utf-8") as fh:
            assert load_points(fh) == [(0, 0, 0, 0)]


class TestHypercylinderPoints:
    def test_membership(self):
        pts = generate_hypercylinder_points(1.0, 4.0, 0.8, 0.8, seed=0)
        r2 = (pts[:, :3] ** 2).sum(axis=1)
        assert (r2 <= 1.0 + 1e-12).all()
        assert (pts[:, 3] >= 0.0).all() and (pts[:, 3] <= 4.0).all()

    def test_halving_h_quadruples_level_count(self):
        def level_count(h):
            return max(6, int(round(4.0 * math.pi / h ** 2)))

        for h in (1.0, 0.5, 0.25):
            ratio = level_count(h / 2) / level_count(h)
            assert 3.5 <= ratio <= 4.5

    def test_deterministic(self):
        a = generate_hypercylinder_points(1.0, 4.0, 0.7, 0.9, seed=3)
        b = generate_hypercylinder_points(1.0, 4.0, 0.7, 0.9, seed=3)
        assert np.array_equal(a, b)
        c = generate_hypercylinder_points(1.0, 4.0, 0.7, 0.9, seed=4)
        assert a.shape == c.shape and not np.array_equal(a, c)

    def test_hull_volume_inscribed(self):
        pts = generate_hypercylinder_points(1.0, 4.0, 0.6, 0.6, seed=1)
        mesh = triangulate(pts, skip_duplicates=True, shuffle=True)
        hv = mesh.total_hypervolume()
        assert 0.0 < hv < hypercylinder_exact_hypervolume(1.0, 4.0)

    def test_sphere_points_on_sphere(self):
        pts = sphere_spiral_points(200, phase=1.2345)
        assert np.allclose((pts ** 2).sum(axis=1), 1.0, atol=1e-12)


class TestStudies:
    def test_predicate_study_trend(self):
        rows = predicate_comparison_study(dims=(2, 10), trials=40, seed=7)
        by = {(r["d"], r["kind"]): r for r in rows}
        for kind in ("cholesky", "sqrt"):
            assert (by[(10, kind)]["mean_normalized_difference"]
                    > by[(2, kind)]["mean_normalized_difference"] >= 0.0)
            assert (by[(10, kind)]["mean_decomposition_error"]
                    > by[(2, kind)]["mean_decomposition_error"] >= 0.0)

    def test_predicate_study_exact_zero(self):
        rows = predicate_comparison_study(dims=(4,), trials=25, seed=3, exact=True)
        assert rows[0]["nonzero_differences"] == 0

    def test_predicate_study_deterministic(self):
        a = predicate_comparison_study(dims=(3,), trials=10, seed=5)
        b = predicate_comparison_study(dims=(3,), trials=10, seed=5)
        assert a == b

    def test_quality_study_small(self):
        summary, histogram = quality_study(sizes=(25,), heuristic=1, seed=2)
        row = summary[0]
        assert row["hv_conserved_exactly"]
        assert row["amq20_final"] >= row["amq20_initial"] - 1e-12
        assert row["pentatopes_initial"] > 0

    def test_convergence_study_names_an_unknown_metric(self, monkeypatch):
        def no_meshing(*args, **kwargs):
            raise AssertionError("meshed before checking the metric")

        monkeypatch.setattr(studies, "triangulate", no_meshing)
        with pytest.raises(ValueError, match="unknown metric 'speedy'"):
            convergence_study(levels=3, metric="speedy")

    def test_convergence_study_shrinks_error(self):
        res = convergence_study(levels=3, refine=1.5,
                                metric="identity", seed=1)
        errs = [r["hv_error"] for r in res.rows]
        assert errs[0] > errs[1] > errs[2] > 0.0
        assert res.slope > 1.0

    def test_write_csv(self):
        buf = io.StringIO()
        write_csv([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}], buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "a,b" and lines[1] == "1,2.5"


class TestCli:
    def _points_file(self, tmp_path, rng, n=15):
        path = tmp_path / "pts.csv"
        lines = [" ".join(repr(float(x)) for x in row) for row in rng.random((n, 4))]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_mesh_audit_roundtrip(self, tmp_path, rng):
        pts = self._points_file(tmp_path, rng)
        out = str(tmp_path / "mesh.p4m")
        code = cli_main(["mesh", pts, "--audit", "-o", out])
        assert code == 0
        text = pathlib.Path(out).read_text()
        assert text.startswith("p4m 1")

    def test_quality_and_improve(self, tmp_path, rng):
        pts = self._points_file(tmp_path, rng)
        mesh_path = str(tmp_path / "m.p4m")
        assert cli_main(["mesh", pts, "-o", mesh_path]) == 0
        qcsv = str(tmp_path / "q.csv")
        assert cli_main(["quality", mesh_path, "--heuristic", "2", "-o", qcsv]) == 0
        assert pathlib.Path(qcsv).read_text().splitlines()[0].strip() == "element,eta2"
        # under the identity each element's value is pentatope_quality's, bit for bit
        mesh = load_p4m(mesh_path)
        with open(qcsv, encoding="utf-8") as fh:
            got = {int(r["element"]): float(r["eta2"]) for r in csv.DictReader(fh)}
        assert got == {eid: pentatope_quality(mesh.element_points(eid), 2)
                       for eid in mesh.alive_elements()}
        icsv = str(tmp_path / "i.csv")
        improved = str(tmp_path / "improved.p4m")
        assert cli_main(["improve", mesh_path, "-o", icsv,
                         "--mesh-out", improved]) == 0
        assert "hv_conserved_exactly" in pathlib.Path(icsv).read_text().splitlines()[0]
        assert pathlib.Path(improved).read_text().startswith("p4m 1")

    def test_export_tet3(self, tmp_path, rng):
        pts = self._points_file(tmp_path, rng, n=8)
        mesh_path = str(tmp_path / "m.p4m")
        cli_main(["mesh", pts, "-o", mesh_path])
        out = str(tmp_path / "m.tet3")
        assert cli_main(["export", mesh_path, "--format", "tet3", "-o", out]) == 0
        assert pathlib.Path(out).read_text().startswith("tet3 1")

    def test_failed_study_leaves_no_output_file(self, tmp_path):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least 3 refinement levels"):
                cli_main(["study", "convergence", "--levels", "2", "-o", str(out)])
            gc.collect()  # an unclosed handle would warn here
        assert not out.exists()

    def test_study_predicates(self, tmp_path):
        out = str(tmp_path / "pred.csv")
        assert cli_main(["study", "predicates", "--dims", "2,3",
                         "--trials", "5", "-o", out]) == 0
        text = pathlib.Path(out).read_text()
        assert "mean_normalized_difference" in text

    def test_improve_and_study_share_summary_columns(self, tmp_path, rng):
        # both rows are the report's as_row() plus their own keys
        pts = self._points_file(tmp_path, rng, n=20)
        mesh_path = str(tmp_path / "m.p4m")
        assert cli_main(["mesh", pts, "-o", mesh_path]) == 0
        icsv = tmp_path / "i.csv"
        assert cli_main(["improve", mesh_path, "-o", str(icsv)]) == 0
        with icsv.open(encoding="utf-8") as fh:
            cli_cols = next(csv.reader(fh))
        summary, _ = quality_study(sizes=(20,), seed=1)
        shared = list(improve_quality(triangulate(rng.random((20, 4)))).as_row())
        assert shared[0] == "n_flips" and "amq1_initial" in shared
        assert cli_cols[0] == "heuristic" and cli_cols[1:1 + len(shared)] == shared
        assert all(c.startswith("flips_") for c in cli_cols[1 + len(shared):])
        assert list(summary[0]) == ["n_points"] + shared

    def test_entry_point_runs(self):
        proc = subprocess.run([sys.executable, "-m", "pentamesh.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "pentamesh" in proc.stdout

    def test_demo_meshing_basics_runs(self):
        demo = pathlib.Path(__file__).resolve().parents[1] / "demos" / "demo_meshing_basics.py"
        proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                              text=True, env=_env_with_src(), timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert "audit: 0 strict violations" in proc.stdout

    def test_metric_parsing(self):
        from pentamesh.cli import parse_metric
        f = parse_metric("speed:2.0,0.5")
        assert f.params["c0"] == 2.0 and f.params["beta"] == 0.5
        assert parse_metric("identity").kind == "identity"
        with pytest.raises(Exception):
            parse_metric("nonsense")

    @pytest.mark.parametrize("spec", ["speedy", "speed:1,2,3,4", "speed:fast", "identity:2"])
    def test_metric_parsing_rejects_other_specs(self, spec):
        from pentamesh.cli import parse_metric
        with pytest.raises(argparse.ArgumentTypeError):
            parse_metric(spec)

    @pytest.mark.parametrize("spec", ["speed:nan", "speed:inf", "speed:1,nan", "speed:1,0.1,-inf"])
    def test_non_finite_metric_is_a_usage_error(self, spec, tmp_path, rng, capsys):
        pts = self._points_file(tmp_path, rng, n=10)
        with pytest.raises(SystemExit) as exc:
            cli_main(["mesh", pts, "--metric", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and repr(spec) in err and "non-finite" in err
        assert "Traceback" not in err
