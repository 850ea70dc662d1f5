"""Command line front end.

Subcommands:
    predict    baseline / tilt / distance table for a camera
    extract    split a raw capture into per-viewpoint images
    disparity  block-match two viewpoint images
    depth      turn a disparity map into distances
    render     synthesize a raw capture of textured planes
    verify     check cameras against factory reference values

All data outputs are byte-stable: metadata lives in '#' header lines and
no timestamps are written. Each command imports only the modules it runs,
so a one-line prediction does not load the renderer or the matcher.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .configio import load_config
from .optics import derive_focus_state


def _int_list(text: str) -> list[int]:
    """argparse type: a comma-separated integer list, empty for blank text."""
    try:
        return [int(tok) for tok in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated integer list, got {text!r}"
        ) from None


def _finite_float_list(text: str) -> list[float]:
    """argparse type: a comma-separated list of finite numbers, empty for blank text."""
    try:
        values = [float(tok) for tok in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a comma-separated number list, got {text!r}"
        ) from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"must be finite numbers, got {text!r}")
    return values


def _checked(kind, rule: str, holds):
    """argparse type: text that kind (int or float) reads and holds accepts."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not holds(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


# nan would pass every later comparison, so the pupil rule excludes it.
_positive_finite = _checked(float, "positive and finite", lambda v: 0 < v < math.inf)
_odd_block = _checked(int, "odd and >= 1", lambda v: v >= 1 and v % 2 == 1)
_at_least_one = _checked(int, ">= 1", lambda v: v >= 1)
# lightfield's graymap rule, 0 < maxval < 65536.
_maxval = _checked(int, "an integer in (0, 65536)", lambda v: 0 < v < 65536)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="ascii")


def cmd_predict(args) -> int:
    from . import raymodel

    config = load_config(args.config)
    state = derive_focus_state(config)
    array = raymodel.build_virtual_camera_array(state, config)
    try:
        rigs = [(gap, array.pair(gap)) for gap in args.gaps]
    except ValueError as exc:
        raise ValueError(f"--gaps: {exc}") from None
    disparities = args.disparities
    dx_mm = [dx * array.virtual_pixel_pitch_mm for dx in disparities]

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
    pupil = args.pupil_diameter_mm
    if pupil is not None and rigs:
        widest = max(rig.baseline_mm for _, rig in rigs)
        if widest > pupil:
            print(
                f"warning: widest baseline {widest:.4f} mm exceeds the "
                f"entrance pupil diameter {pupil:g} mm",
                file=sys.stderr,
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_extract(args) -> int:
    from . import lightfield

    config = load_config(args.config)
    out_dir = Path(args.out_dir)
    # Streamed from the raw one row offset at a time, each view file written whole.
    count = lightfield._extract_pgm(args.raw, config, out_dir, args.rotate_180)
    print(f"wrote {count} views to {out_dir}")
    return 0


def cmd_disparity(args) -> int:
    from . import disparity, lightfield

    left, left_maxval = lightfield.read_pgm(args.left)
    right, right_maxval = lightfield.read_pgm(args.right)
    # Matching views of different scales would give a plausible, wrong map.
    if left_maxval != right_maxval:
        raise ValueError(
            f"view maxvals differ: {args.left} has {left_maxval}, "
            f"{args.right} has {right_maxval}"
        )
    if left.shape != right.shape:
        raise ValueError(
            f"view sizes differ: {args.left} is {left.shape[1]}x{left.shape[0]}, "
            f"{args.right} is {right.shape[1]}x{right.shape[0]}"
        )
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
    from . import disparity, raymodel

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
    from . import lightfield, oracle

    config = load_config(args.config)
    scene_path = Path(args.scene)
    try:
        planes = oracle.parse_scene(scene_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        # A UnicodeDecodeError is a ValueError too, and names no file.
        raise ValueError(f"{scene_path}: {exc}") from exc
    # Each row block is written as it is rendered, so no frame is held.
    blocks = oracle._render_rows(config, planes, base_dir=scene_path.parent, maxval=args.maxval)
    width, height = config.image_width_px, config.image_height_px
    lightfield._write_graymap(args.out, width, height, args.maxval, blocks)
    return 0


def cmd_verify(args) -> int:
    from . import presets

    if args.reference is not None and args.config is None:
        raise ValueError("--reference only applies to a --config camera file")
    if args.config is not None and args.fixtures:
        raise ValueError("give either fixture names or --config, not both")
    # (title, reference name, camera); a camera file has no title.
    if args.config is not None:
        cameras = [(None, args.reference, load_config(args.config))]
    else:
        names = args.fixtures or sorted(presets.REFERENCE_VALUES)
        # An unknown name fails before any fixture's report is printed.
        cameras = [(f"== {name} ==", name, presets.load_fixture(name)) for name in names]
    total = failed = skipped = 0
    for title, reference, config in cameras:
        if title is not None:
            print(title)
        outcomes = [] if reference is None else presets.run_factory_checks(reference, config)
        for outcome in outcomes + presets.run_consistency_checks(config):
            if outcome.note:
                skipped += 1
                print(f"SKIP {outcome.label}: {outcome.note}")
                continue
            total += 1
            if not outcome.passed:
                failed += 1
                print(
                    f"FAIL {outcome.label}: expected {outcome.expected!r}, "
                    f"got {outcome.got!r} (tolerance {outcome.tolerance:g})"
                )
            elif args.verbose:
                print(f"PASS {outcome.label}: {outcome.got!r}")
    if skipped:
        print(f"{skipped} check{'' if skipped == 1 else 's'} skipped")
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
    p.add_argument("--gaps", type=_int_list, default="1",
                   help="comma-separated viewpoint gaps G")
    p.add_argument("--disparities", type=_finite_float_list, default="",
                   help="comma-separated disparities in pixels")
    p.add_argument("--pupil-diameter-mm", type=_positive_finite, default=None,
                   help="warn when a baseline exceeds this pupil diameter")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")
    p.set_defaults(run=cmd_predict)

    p = sub.add_parser("extract", help="split a raw capture into views")
    p.add_argument("config")
    p.add_argument("raw", help="raw mosaic as a portable graymap")
    p.add_argument("out_dir")
    p.add_argument("--rotate-180", action="store_true", dest="rotate_180",
                   help="rotate the raw before decoding")
    p.set_defaults(run=cmd_extract)

    p = sub.add_parser("disparity", help="block-match two views")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--block", type=_odd_block, default=29, help="odd SAD window size")
    p.add_argument("--maxd", type=_at_least_one, default=5, help="search range in pixels")
    p.add_argument("--no-subpixel", action="store_true")
    p.add_argument("--out", required=True, help="disparity CSV path")
    p.add_argument("--graymap", default=None, help="optional 16-bit preview graymap")
    p.set_defaults(run=cmd_disparity)

    p = sub.add_parser("depth", help="triangulate a disparity map")
    p.add_argument("config")
    p.add_argument("disparity", help="CSV from the disparity command")
    p.add_argument("--gap", type=int, required=True, help="viewpoint gap G of the pair")
    p.add_argument("--out", required=True, help="depth CSV path")
    p.set_defaults(run=cmd_depth)

    p = sub.add_parser("render", help="synthesize a raw capture")
    p.add_argument("config")
    p.add_argument("scene", help="scene description file")
    p.add_argument("out", help="output graymap path")
    p.add_argument("--maxval", type=_maxval, default=65535)
    p.set_defaults(run=cmd_render)

    p = sub.add_parser("verify", help="check against factory reference values")
    p.add_argument("fixtures", nargs="*",
                   help="fixture names to run (default: all shipped fixtures)")
    p.add_argument("--config", default=None,
                   help="verify this camera file instead of shipped fixtures")
    p.add_argument("--reference", default=None,
                   help="compare --config against this fixture's reference values")
    p.add_argument("--verbose", action="store_true", help="print passing checks too")
    p.set_defaults(run=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError, KeyError) as exc:
        # str() of a KeyError quotes its message; print the message itself.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
