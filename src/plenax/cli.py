"""Command line front end.

Subcommands:
    predict    baseline / tilt / distance table for a camera
    extract    split a raw capture into per-viewpoint images
    disparity  block-match two viewpoint images
    depth      turn a disparity map into distances
    render     synthesize a raw capture of textured planes
    verify     check cameras against factory reference values

All data outputs are byte-stable: metadata lives in '#' header lines and
no timestamps are written.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, disparity, lightfield, oracle, presets, raymodel
from .configio import ConfigError, load_config
from .optics import derive_focus_state


def _parse_int_list(text: str, what: str) -> list[int]:
    if not text.strip():
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise SystemExit(f"error: {what} must be a comma-separated integer list, got {text!r}")


def _parse_float_list(text: str, what: str) -> list[float]:
    if not text.strip():
        return []
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise SystemExit(f"error: {what} must be a comma-separated number list, got {text!r}")
    if not all(math.isfinite(v) for v in values):
        raise SystemExit(f"error: {what} must be finite numbers, got {text!r}")
    return values


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="ascii")


def cmd_predict(args) -> int:
    config = load_config(args.config)
    state = derive_focus_state(config)
    array = raymodel.build_virtual_camera_array(state, config)
    try:
        rigs = [(gap, array.pair(gap)) for gap in _parse_int_list(args.gaps, "--gaps")]
    except ValueError as exc:
        raise ValueError(f"--gaps: {exc}") from None
    disparities = _parse_float_list(args.disparities, "--disparities")
    dx_mm = np.array(disparities) * array.virtual_pixel_pitch_mm

    lines = [
        f"# camera: {args.config}",
        f"# b_u_mm: {state.b_u_mm:.6f}",
        f"# d_ap_mm: {state.d_ap_mm:.6f}",
        f"# a_u_mm: {state.a_u_mm:.6f}",
        f"# entrance_pupil_mm: {raymodel.entrance_pupil_distance(state, config):.6f}",
        "G,dx,B_mm,Phi_deg,Z_mm",
    ]
    for gap, rig in rigs:
        b = rig.baseline_mm
        phi = math.degrees(rig.tilt_rad)
        if disparities:
            for dx, z in zip(disparities, raymodel.stereo_depth(rig, dx_mm)):
                lines.append(f"{gap},{dx:g},{b:.6f},{phi:.6f},{z:.6f}")
        else:
            lines.append(f"{gap},,{b:.6f},{phi:.6f},")
    if args.pupil_diameter_mm is not None and rigs:
        widest = max(rig.baseline_mm for _, rig in rigs)
        if widest > args.pupil_diameter_mm:
            print(
                f"warning: widest baseline {widest:.4f} mm exceeds the "
                f"entrance pupil diameter {args.pupil_diameter_mm:g} mm",
                file=sys.stderr,
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_extract(args) -> int:
    config = load_config(args.config)
    samples, maxval = lightfield.read_pgm(args.raw)
    raw = lightfield.RawLightFieldImage(samples=samples, config=config)
    lf = lightfield.decode(raw, rotate_180=args.rotate_180)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    views = lightfield.extract_all_views(lf)
    for (i, g), view in sorted(views.items()):
        lightfield.write_pgm(
            out_dir / lightfield.view_filename(i, g), view.pixels, maxval=maxval
        )
    print(f"wrote {len(views)} views to {out_dir}")
    return 0


def cmd_disparity(args, parser: argparse.ArgumentParser) -> int:
    if args.block < 1 or args.block % 2 == 0:
        parser.error(f"--block must be odd, got {args.block}")
    left, _ = lightfield.read_pgm(args.left)
    right, _ = lightfield.read_pgm(args.right)
    params = disparity.MatchParams(
        block_size=args.block, max_disparity=args.maxd, subpixel=not args.no_subpixel
    )
    result = disparity.block_match(left, right, params)
    header = {
        "left": args.left,
        "right": args.right,
        "block": args.block,
        "max_disparity": args.maxd,
        "subpixel": not args.no_subpixel,
    }
    disparity.write_map_csv(args.out, result.values, header=header)
    if args.graymap is not None:
        lightfield.write_pgm(
            args.graymap, disparity.to_graymap(result.values), maxval=65535
        )
    return 0


def cmd_depth(args) -> int:
    config = load_config(args.config)
    state = derive_focus_state(config)
    array = raymodel.build_virtual_camera_array(state, config)
    rig = array.pair(args.gap)
    values = disparity.read_map_csv(args.disparity)
    depth = raymodel.stereo_depth(rig, values * array.virtual_pixel_pitch_mm)
    header = {
        "camera": args.config,
        "gap": args.gap,
        "baseline_mm": f"{rig.baseline_mm:.6f}",
        "tilt_deg": f"{math.degrees(rig.tilt_rad):.6f}",
    }
    disparity.write_map_csv(args.out, depth, header=header)
    return 0


def cmd_render(args) -> int:
    config = load_config(args.config)
    scene_path = Path(args.scene)
    try:
        planes = oracle.parse_scene(scene_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        # A UnicodeDecodeError is a ValueError too, and names no file.
        raise ValueError(f"{scene_path}: {exc}") from exc
    raw = oracle.render_synthetic_scene(
        config, planes, base_dir=scene_path.parent, maxval=args.maxval
    )
    lightfield.write_pgm(args.out, raw.samples, maxval=args.maxval)
    return 0


def _report(outcomes, verbose: bool) -> tuple[int, int]:
    failed = 0
    for outcome in outcomes:
        if outcome.note:
            print(f"SKIP {outcome.label}: {outcome.note}")
            continue
        if not outcome.passed:
            failed += 1
            print(
                f"FAIL {outcome.label}: expected {outcome.expected!r}, "
                f"got {outcome.got!r} (tolerance {outcome.tolerance:g})"
            )
        elif verbose:
            print(f"PASS {outcome.label}: {outcome.got!r}")
    return len(outcomes), failed


def cmd_verify(args) -> int:
    if args.reference is not None and args.config is None:
        raise ValueError("--reference only applies to a --config camera file")
    if args.config is not None and args.fixtures:
        raise ValueError("give either fixture names or --config, not both")
    total = failed = 0
    if args.config is not None:
        config = load_config(args.config)
        if args.reference is not None:
            outcomes = presets.run_factory_checks(args.reference, config)
            n, f = _report(outcomes, args.verbose)
            total += n
            failed += f
        n, f = _report(presets.run_consistency_checks(config), args.verbose)
        total += n
        failed += f
    else:
        names = args.fixtures or sorted(presets.REFERENCE_VALUES)
        for name in names:
            print(f"== {name} ==")
            outcomes = presets.run_factory_checks(name)
            outcomes += presets.run_consistency_checks(presets.load_fixture(name))
            n, f = _report(outcomes, args.verbose)
            total += n
            failed += f
    print(f"{total - failed}/{total} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plenax",
        description="Virtual camera model of a standard plenoptic camera",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="baseline / tilt / distance table")
    p.add_argument("config")
    p.add_argument("--gaps", default="1", help="comma-separated viewpoint gaps G")
    p.add_argument(
        "--disparities", default="", help="comma-separated disparities in pixels"
    )
    p.add_argument("--pupil-diameter-mm", type=float, default=None,
                   help="warn when a baseline exceeds this pupil diameter")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")

    p = sub.add_parser("extract", help="split a raw capture into views")
    p.add_argument("config")
    p.add_argument("raw", help="raw mosaic as a portable graymap")
    p.add_argument("out_dir")
    p.add_argument("--rotate-180", action="store_true", dest="rotate_180",
                   help="rotate the raw before decoding")

    p = sub.add_parser("disparity", help="block-match two views")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--block", type=int, default=29, help="odd SAD window size")
    p.add_argument("--maxd", type=int, default=5, help="search range in pixels")
    p.add_argument("--no-subpixel", action="store_true")
    p.add_argument("--out", required=True, help="disparity CSV path")
    p.add_argument("--graymap", default=None, help="optional 16-bit preview graymap")

    p = sub.add_parser("depth", help="triangulate a disparity map")
    p.add_argument("config")
    p.add_argument("disparity", help="CSV from the disparity command")
    p.add_argument("--gap", type=int, required=True, help="viewpoint gap G of the pair")
    p.add_argument("--out", required=True, help="depth CSV path")

    p = sub.add_parser("render", help="synthesize a raw capture")
    p.add_argument("config")
    p.add_argument("scene", help="scene description file")
    p.add_argument("out", help="output graymap path")
    p.add_argument("--maxval", type=int, default=65535)

    p = sub.add_parser("verify", help="check against factory reference values")
    p.add_argument("fixtures", nargs="*",
                   help="fixture names to run (default: all shipped fixtures)")
    p.add_argument("--config", default=None,
                   help="verify this camera file instead of shipped fixtures")
    p.add_argument("--reference", default=None,
                   help="compare --config against this fixture's reference values")
    p.add_argument("--verbose", action="store_true", help="print passing checks too")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "predict":
            return cmd_predict(args)
        if args.command == "extract":
            return cmd_extract(args)
        if args.command == "disparity":
            return cmd_disparity(args, parser)
        if args.command == "depth":
            return cmd_depth(args)
        if args.command == "render":
            return cmd_render(args)
        if args.command == "verify":
            return cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
