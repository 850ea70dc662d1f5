"""The benchmark workloads.

Each workload is a closed loop with one caller: set up once from the seed,
then repeat one iteration, each starting when the last one ends. An
iteration only runs plenax; the correctness gate and the output hashes are
taken after its clock stops. The program sees only the generated files.

Four workloads each stress one part of plenax. BENCHMARK.json declares two
of them combined: cli_session runs render_f197, cli_chain_f197 and
verify_fixtures back to back in one iteration, and match_lytro runs alone.
On a shared 2-core host, wall times drift by up to 2x over tens of seconds,
so fewer, longer runs give steadier medians than four short ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import inputs
from plenax import cli, configio, disparity, lightfield, presets

MATCH_GAPS = tuple(range(1, 9))


class Failure(Exception):
    """An iteration whose commands or outputs failed the gate."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pgm_shape(path: Path) -> tuple[int, int]:
    """(height, width) of a binary graymap, checked against its file size."""
    if not path.is_file():
        raise Failure(f"missing output {path.name}")
    with open(path, "rb") as f:
        head = f.read(64)
    fields = head.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5":
        raise Failure(f"{path.name} is not a binary graymap")
    width, height, maxval = (int(v) for v in fields[1:4])
    header = len(b" ".join(fields[:4])) + 1
    expected = header + width * height * (2 if maxval > 255 else 1)
    if path.stat().st_size != expected:
        raise Failure(f"{path.name} holds {path.stat().st_size} bytes, expected {expected}")
    return height, width


def csv_shape(path: Path) -> tuple[int, int]:
    if not path.is_file():
        raise Failure(f"missing output {path.name}")
    rows = [
        line for line in path.read_text(encoding="ascii").splitlines()
        if line and not line.startswith("#")
    ]
    widths = {line.count(",") + 1 for line in rows}
    if len(widths) != 1:
        raise Failure(f"{path.name} has ragged rows")
    return len(rows), widths.pop()


def expect_shape(what: str, got, expected) -> None:
    if tuple(got) != tuple(expected):
        raise Failure(f"{what} has shape {tuple(got)}, expected {tuple(expected)}")


def load_csv(path: Path) -> np.ndarray:
    """Parse a map CSV with numpy, independently of plenax's reader."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2)


@contextlib.contextmanager
def inside(directory: Path):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def call_cli(directory: Path, argv: list[str], tracer=None) -> str:
    """Run plenax.cli.main in-process from directory; return its stdout.

    Paths in argv are relative to directory: outputs that name their inputs
    then hold the same bytes wherever the benchmark runs. Raises Failure on
    a nonzero exit.
    """
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    out, err = io.StringIO(), io.StringIO()
    with inside(directory), span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise Failure(f"plenax {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def render_in_child(root: Path, directory: Path, config: str, scene: str, out: str) -> None:
    """Render with plenax in a child process.

    The benchmark's own peak RSS is a lifetime high-water mark, so a render
    done in-process during set-up would hide the iteration's own peak.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "plenax.cli", "render", config, scene, out],
        cwd=directory, env=env, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up render failed: {proc.stderr.strip()}")


def copy_fixture(name: str, directory: Path) -> str:
    """Copy a shipped camera file into directory; return its name there."""
    shutil.copyfile(presets.fixture_path(name), directory / f"{name}.cfg")
    return f"{name}.cfg"


def disparity_quality(values: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """RMSE over the ground-truth pixels matched, and the share within 0.5 px.

    Ground-truth pixels the matcher left NaN count as misses in the share.
    """
    known = np.isfinite(truth)
    matched = known & np.isfinite(values)
    err = values[matched] - truth[matched]
    return {
        "disp_rmse_px": float(np.sqrt(np.mean(err**2))) if err.size else math.nan,
        "disp_valid_frac": np.count_nonzero(np.abs(err) <= 0.5) / max(1, np.count_nonzero(known)),
    }


class Workload:
    """One workload: seeded set-up, a timed iteration, a gate, a quality probe."""

    name = ""
    why = ""
    raw_mpx = None  # raw megapixels one iteration handles, when it has a raw

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def iterate(self, tracer=None) -> None:
        raise NotImplementedError

    def clear_outputs(self) -> None:
        """Remove the last iteration's outputs, so a missing one shows."""

    def check(self) -> dict[str, str]:
        """Gate the last iteration; return SHA-256 of every output."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        return {}


class RenderF197(Workload):
    name = "render_f197"
    why = (
        "Renders the 8.9 Mpx f197 raw of a banded checker over a seeded texture; "
        "the oracle dominates, so render speed and memory work shows here."
    )

    def setup(self, directory: Path) -> None:
        self.dir = directory
        self.scene = inputs.f197_scene(self.seed)
        self.scene.write(directory)
        self.config = copy_fixture(inputs.F197.fixture, directory)
        self.out = directory / "raw.pgm"
        config = configio.load_config(directory / self.config)
        self.shape = (config.image_height_px, config.image_width_px)
        self.raw_mpx = self.shape[0] * self.shape[1] / 1e6

    def iterate(self, tracer=None) -> None:
        call_cli(self.dir, ["render", self.config, inputs.SCENE_FILE, self.out.name], tracer)

    def clear_outputs(self) -> None:
        self.out.unlink(missing_ok=True)

    def check(self) -> dict[str, str]:
        expect_shape("rendered raw", pgm_shape(self.out), self.shape)
        return {"raw.pgm": sha256_file(self.out)}


class CliChainF197(Workload):
    name = "cli_chain_f197"
    why = (
        "Runs extract, disparity and depth on a pre-rendered f197 raw; PGM writes "
        "of 169 views and CSV I/O dominate, so writer and view-extraction work shows here."
    )

    def setup(self, directory: Path) -> None:
        rig = inputs.F197
        self.dir = directory
        self.scene = inputs.f197_scene(self.seed)
        self.scene.write(directory)
        self.config = copy_fixture(rig.fixture, directory)
        render_in_child(self.root, directory, self.config, inputs.SCENE_FILE, "raw.pgm")
        config = configio.load_config(directory / self.config)
        self.raw_mpx = config.image_width_px * config.image_height_px / 1e6
        self.view_shape = (config.mla.count_v, config.mla.count_h)
        self.c = config.sensor.half_span
        self.i_low = -(rig.gap // 2)
        self.views = directory / "views"
        self.disp = directory / "disp.csv"
        self.gray = directory / "disp.pgm"
        self.depth = directory / "depth.csv"

    def iterate(self, tracer=None) -> None:
        rig = inputs.F197
        call_cli(self.dir, ["extract", self.config, "raw.pgm", self.views.name], tracer)
        left = f"{self.views.name}/{lightfield.view_filename(self.i_low, 0)}"
        right = f"{self.views.name}/{lightfield.view_filename(self.i_low + rig.gap, 0)}"
        call_cli(self.dir, [
            "disparity", left, right,
            "--block", str(rig.block_size), "--maxd", str(rig.max_disparity),
            "--out", self.disp.name, "--graymap", self.gray.name,
        ], tracer)
        call_cli(self.dir, [
            "depth", self.config, self.disp.name, "--gap", str(rig.gap),
            "--out", self.depth.name,
        ], tracer)

    def clear_outputs(self) -> None:
        shutil.rmtree(self.views, ignore_errors=True)
        for path in (self.disp, self.gray, self.depth):
            path.unlink(missing_ok=True)

    def check(self) -> dict[str, str]:
        c = self.c
        expected = {
            lightfield.view_filename(i, g) for i in range(-c, c + 1) for g in range(-c, c + 1)
        }
        found = {p.name for p in self.views.iterdir()} if self.views.is_dir() else set()
        if found != expected:
            raise Failure(f"extract wrote {len(found)} views, expected {len(expected)}")
        hashes = {}
        for name in sorted(expected):
            expect_shape(name, pgm_shape(self.views / name), self.view_shape)
            hashes[f"views/{name}"] = sha256_file(self.views / name)
        expect_shape("disparity csv", csv_shape(self.disp), self.view_shape)
        expect_shape("disparity graymap", pgm_shape(self.gray), self.view_shape)
        expect_shape("depth csv", csv_shape(self.depth), self.view_shape)
        for path in (self.disp, self.gray, self.depth):
            hashes[path.name] = sha256_file(path)
        return hashes

    def quality(self) -> dict[str, float]:
        rig = inputs.F197
        values = load_csv(self.disp)
        truth = self.scene.truth_map(self.i_low, rig.gap, values.shape)
        depth = load_csv(self.depth)
        plane_depth = np.full(truth.shape, np.nan)
        for plane in self.scene.planes:
            d = inputs.truth_disparity(rig, rig.gap, plane.depth_mm)
            plane_depth[truth == d] = plane.depth_mm
        known = np.isfinite(plane_depth) & np.isfinite(depth)
        rel = np.abs(depth[known] - plane_depth[known]) / plane_depth[known]
        return {
            **disparity_quality(values, truth),
            "depth_rel_err.p50": float(np.median(rel)) if rel.size else math.nan,
        }


class MatchLytro(Workload):
    name = "match_lytro"
    why = (
        "Decodes the 8.8 Mpx Lytro raw and block-matches centred pairs at gaps 1-8 "
        "(maxd 16) through the library; the matcher dominates and no file is written."
    )

    def setup(self, directory: Path) -> None:
        rig = inputs.LYTRO
        self.dir = directory
        self.scene = inputs.lytro_scene(self.seed)
        self.scene.write(directory)
        config_name = copy_fixture(rig.fixture, directory)
        self.raw = directory / "raw.pgm"
        render_in_child(self.root, directory, config_name, inputs.SCENE_FILE, self.raw.name)
        self.config = configio.load_config(directory / config_name)
        self.raw_mpx = self.config.image_width_px * self.config.image_height_px / 1e6
        self.params = disparity.MatchParams(
            block_size=rig.block_size, max_disparity=rig.max_disparity
        )
        self.maps: dict[int, np.ndarray] = {}

    def iterate(self, tracer=None) -> None:
        samples, _ = lightfield.read_pgm(self.raw)
        lf = lightfield.decode(lightfield.RawLightFieldImage(samples=samples, config=self.config))
        for gap in MATCH_GAPS:
            i_low = -(gap // 2)
            left = lightfield.extract_view(lf, i_low, 0).pixels.astype(np.float64)
            right = lightfield.extract_view(lf, i_low + gap, 0).pixels.astype(np.float64)
            self.maps[gap] = disparity.block_match(left, right, self.params).values

    def clear_outputs(self) -> None:
        self.maps = {}

    def check(self) -> dict[str, str]:
        shape = (self.config.mla.count_v, self.config.mla.count_h)
        if sorted(self.maps) != list(MATCH_GAPS):
            raise Failure(f"matched gaps {sorted(self.maps)}, expected {list(MATCH_GAPS)}")
        hashes = {}
        for gap, values in self.maps.items():
            expect_shape(f"disparity map at gap {gap}", values.shape, shape)
            hashes[f"disparity_gap{gap}.f64"] = hashlib.sha256(values.tobytes()).hexdigest()
        return hashes

    def quality(self) -> dict[str, float]:
        # Pooled over every gap matched.
        values = np.concatenate([m.ravel() for m in self.maps.values()])
        truth = np.concatenate([
            self.scene.truth_map(-(gap // 2), gap, m.shape).ravel() for gap, m in self.maps.items()
        ])
        return disparity_quality(values, truth)


class VerifyFixtures(Workload):
    name = "verify_fixtures"
    why = (
        "Runs plenax verify on all 13 fixtures, then predict at gaps 1-8 and 17 "
        "disparities each; config load, focus solve, ray model and oracle dominate."
    )

    def setup(self, directory: Path) -> None:
        self.dir = directory
        self.names = presets.fixture_names()
        self.configs = [copy_fixture(name, directory) for name in self.names]
        self.disparities = inputs.predict_disparities(self.seed)
        (directory / "disparities.txt").write_text(
            ",".join(repr(d) for d in self.disparities) + "\n", encoding="ascii"
        )
        self.outs = [directory / f"{name}.predict.csv" for name in self.names]
        self.report = ""

    def iterate(self, tracer=None) -> None:
        self.report = call_cli(self.dir, ["verify"], tracer)
        gaps = ",".join(str(g) for g in MATCH_GAPS)
        disparities = ",".join(repr(d) for d in self.disparities)
        for config, out in zip(self.configs, self.outs):
            call_cli(self.dir, [
                "predict", config, "--gaps", gaps, f"--disparities={disparities}",
                "--out", out.name,
            ], tracer)

    def clear_outputs(self) -> None:
        self.report = ""
        for out in self.outs:
            out.unlink(missing_ok=True)

    def check(self) -> dict[str, str]:
        summary = self.report.rstrip().rpartition("\n")[2]
        passed, _, total = summary.partition(" ")[0].partition("/")
        if not summary.endswith("checks passed") or passed != total:
            raise Failure(f"verify reported {summary!r}")
        hashes = {"verify.stdout": hashlib.sha256(self.report.encode()).hexdigest()}
        rows = len(MATCH_GAPS) * len(self.disparities) + 1  # plus the column header
        for out in self.outs:
            expect_shape(out.name, csv_shape(out), (rows, 5))
            hashes[out.name] = sha256_file(out)
        return hashes

    def quality(self) -> dict[str, float]:
        # |got - expected| / bound over every traced-vs-closed-form check, with
        # the bound as run_consistency_checks applies it.
        margin = 0.0
        for name in self.names:
            for o in presets.run_consistency_checks(presets.load_fixture(name)):
                bound = o.tolerance * max(1.0, abs(o.expected), abs(o.got))
                margin = max(margin, abs(o.got - o.expected) / bound)
        return {"oracle_margin_max": margin}


class Composite(Workload):
    """Several workloads, each in its own subdirectory, run as one iteration."""

    parts: tuple[type[Workload], ...] = ()

    def __init__(self, root: Path, seed: int) -> None:
        super().__init__(root, seed)
        self.members = [part(root, seed) for part in self.parts]

    def setup(self, directory: Path) -> None:
        for member in self.members:
            (directory / member.name).mkdir()
            member.setup(directory / member.name)
        self.raw_mpx = sum(m.raw_mpx for m in self.members if m.raw_mpx) or None

    def iterate(self, tracer=None) -> None:
        for member in self.members:
            member.iterate(tracer)

    def clear_outputs(self) -> None:
        for member in self.members:
            member.clear_outputs()

    def check(self) -> dict[str, str]:
        return {f"{m.name}/{k}": v for m in self.members for k, v in m.check().items()}

    def quality(self) -> dict[str, float]:
        return {k: v for m in self.members for k, v in m.quality().items()}


class CliSession(Composite):
    name = "cli_session"
    why = (
        "Every CLI command in turn: render_f197, cli_chain_f197 and verify_fixtures as one "
        "iteration; oracle, writers and CSV I/O, ray model and presets all show here."
    )
    parts = (RenderF197, CliChainF197, VerifyFixtures)


WORKLOADS = {
    w.name: w for w in (RenderF197, CliChainF197, MatchLytro, VerifyFixtures, CliSession)
}
