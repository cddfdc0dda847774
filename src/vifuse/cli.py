"""Command-line front end.

  vifuse synth --out DIR [--config synth.json] [--seed N]
  vifuse run --config run.json --out DIR [--mode M]
             [--fps-report] [--per-frame-metrics]

Exit codes: 0 success, 2 configuration or missing-input error, 3 stream
format or data-content error, 4 filesystem error. Diagnostics go to stderr
with a category prefix; results and reports go to files under --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .fileio import FormatError
from .pipeline import (
    ConfigError,
    DataError,
    MissingInputError,
    MODES,
    RunConfig,
    SynthConfig,
    generate_dataset,
    run_pipeline,
    write_dataset,
    write_results,
)
from .skeleton import DegenerateBoneError, UnboundJointError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vifuse",
        description="Visual-inertial refinement of lifted 3D pose sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--config", help="synth config JSON (seed, duration, fps, noise)")
    p_synth.add_argument("--seed", type=int, help="override the config seed")
    p_synth.set_defaults(func=_cmd_synth)

    p_run = sub.add_parser("run", help="run one pipeline mode over stream files")
    p_run.add_argument("--config", required=True, help="run config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--mode", choices=MODES, help="override the config mode")
    p_run.add_argument("--fps-report", action="store_true",
                       help="print fragment and frame throughput to stdout")
    p_run.add_argument("--per-frame-metrics", action="store_true",
                       help="report MPJAE/MPJJE per frame instead of per second")
    p_run.set_defaults(func=_cmd_run)
    return parser


def _cmd_synth(args) -> int:
    config = SynthConfig.from_file(args.config) if args.config else SynthConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    dataset = generate_dataset(config)
    manifest = write_dataset(dataset, args.out)
    files = sorted(manifest["files"].values()) + ["manifest.json", "run_config.json"]
    print(f"wrote {manifest['frames']} frames ({manifest['joints']} joints, "
          f"{manifest['sensors']} sensors) to {args.out}")
    print("files: " + " ".join(files))
    return 0


def _cmd_run(args) -> int:
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.per_frame_metrics:
        overrides["per_second_metrics"] = False
    config = RunConfig.from_file(args.config, **overrides)
    result = run_pipeline(config)
    written = write_results(result, args.out)
    print(f"mode {result.mode}: {result.output.shape[0]} frames -> {args.out}")
    print("wrote: " + " ".join(written))
    if result.report is not None:
        r = result.report
        print(f"MPJPE {r.mpjpe:.3f} mm  MPJAE {r.mpjae:.3f}  MPJJE {r.mpjje:.3f}")
    if args.fps_report and result.stats is not None:
        s = result.stats
        print(f"throughput: {s.fragments_per_second:.2f} fragments/s, "
              f"{s.output_frames_per_second:.2f} frames/s "
              f"({s.fragment_count} fragments in {s.optimize_seconds:.3f} s)")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MissingInputError as e:
        print(f"vifuse: missing-input error: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"vifuse: config error: {e}", file=sys.stderr)
        return 2
    except FormatError as e:
        print(f"vifuse: format error: {e}", file=sys.stderr)
        return 3
    except (UnboundJointError, DegenerateBoneError, DataError) as e:
        # args[0] is the message; str() of a KeyError subclass would quote it.
        print(f"vifuse: data error: {e.args[0]}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"vifuse: io error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
