"""Command-line interface.

Exit status contract: 0 success; 1 validation/conformance findings;
2 usage error; 3 I/O or input-format error, including a caremap set whose
links or nested refs name an absent caremap or node (conform, synth,
synth-check), a model under which a trace exceeds the generation step
cap or reaches a sampled decision it cannot decide (synth, synth-check -n),
and a stdout whose reader closed before the output was written (a broken
pipe, which prints nothing more).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

from tasc import conformance, dsl, ingest, render, synthesis, validator
from tasc.model import CaremapSet, ModelError, PathExplosion, enumerate_paths, resolve_refs

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Most traces in one task of a synth pool. A task's lines come back as one
# string, which is written before the next one is taken, so the output synth
# holds grows with this and the pool's size, not with -n.
SYNTH_CHUNK = 1000


class CliIOError(Exception):
    pass


class CliUsageError(Exception):
    pass


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliIOError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise CliIOError(f"{path} is not valid UTF-8: {e}") from e


def _write_atomic(path: str, content: Union[str, Iterable[str]]) -> None:
    """Write content, a str or its pieces in order, to path; "-" is stdout.

    A file gets each piece as it comes, in a temp file beside it that replaces
    path after the last piece. On any error, the temp file is removed and path
    keeps its bytes. Stdout keeps the pieces written before an error.
    """
    pieces = [content] if isinstance(content, str) else content
    if path == "-":
        for piece in pieces:
            sys.stdout.write(piece)
        return
    target = Path(path)
    tmp = None
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".", prefix=target.name + ".")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            os.fchmod(fd, mode)  # mkstemp creates 0600; keep the target's (or umask's) mode
            for piece in pieces:
                f.write(piece)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(e, OSError):
            raise CliIOError(f"cannot write {path}: {e}") from e
        raise


def _use_color() -> bool:
    env = os.environ.get("TASC_COLOR")
    if env == "0":
        return False
    if env == "1":
        return True
    return sys.stderr.isatty()


def _colorize(line: str, severity: str) -> str:
    if not _use_color():
        return line
    code = "31" if severity == "error" else "33"
    return f"\x1b[{code}m{line}\x1b[0m"


def _load_set(path: str) -> CaremapSet:
    text = _read_input(path)
    result = dsl.parse(text, filename=path if path != "-" else "<stdin>")
    if result.set is None:
        for d in result.diagnostics:
            print(_colorize(d.render(), d.severity.value), file=sys.stderr)
        raise CliIOError(f"{path}: parse failed")
    return result.set


def _load_entry_set(args) -> CaremapSet:
    """Load args.file, check that it holds the caremap named by --entry and that
    its links and nested refs resolve.

    A nesting cycle is left to the command: replay cuts it and gives a verdict,
    and compile_stm rejects it with the validator's diagnostics.
    """
    cmset = _load_set(args.file)
    if not cmset.has_caremap(args.entry):
        raise CliUsageError(f"no caremap {args.entry!r} in {args.file}")
    dangling = [e.message for e in resolve_refs(cmset) if e.code != "NestingCycle"]
    if dangling:
        raise CliIOError("\n".join(f"{args.file}: {message}" for message in dangling))
    return cmset


# --- subcommands ------------------------------------------------------------


def cmd_validate(args) -> int:
    worst = EXIT_OK
    all_diags = []
    for path in args.files:
        text = _read_input(path)
        result = dsl.parse(text, filename=path if path != "-" else "<stdin>")
        if result.set is None:
            for d in result.diagnostics:
                if args.format == "text":
                    print(_colorize(d.render(), d.severity.value))
                all_diags.append(
                    {
                        "file": path,
                        "code": d.code,
                        "severity": d.severity.value,
                        "message": d.message,
                        "line": d.span.line,
                        "column": d.span.column,
                    }
                )
            worst = max(worst, EXIT_FINDINGS)
            continue
        config = validator.ValidatorConfig(strict=args.strict)
        diags = validator.validate(result.set, config)
        for d in diags:
            if args.format == "text":
                print(_colorize(d.render(), d.severity))
            all_diags.append({"file": path, **d.as_dict()})
        if validator.has_errors(diags):
            worst = max(worst, EXIT_FINDINGS)
    if args.format == "json":
        print(json.dumps(all_diags, sort_keys=True, indent=2))
    return worst


def cmd_fmt(args) -> int:
    text = _read_input(args.file)
    cmset = dsl.parse_or_raise(text, filename=args.file)
    canonical = dsl.serialize(cmset)
    if args.check:
        return EXIT_OK if canonical == text else EXIT_FINDINGS
    if args.file == "-" or args.stdout:
        sys.stdout.write(canonical)
    else:
        _write_atomic(args.file, canonical)
    return EXIT_OK


def cmd_render(args) -> int:
    cmset = _load_set(args.file)
    style = render.PROFILES[args.style]
    _write_atomic(args.out, render.to_dot(cmset, style))
    return EXIT_OK


def cmd_paths(args) -> int:
    cmset = _load_set(args.file)
    if not cmset.has_caremap(args.caremap):
        print(f"no caremap {args.caremap!r} in {args.file}", file=sys.stderr)
        return EXIT_USAGE
    try:
        paths = enumerate_paths(cmset.caremap(args.caremap), cycle_bound=args.cycle_bound)
    except PathExplosion as e:
        print(f"path explosion: {e}", file=sys.stderr)
        return EXIT_FINDINGS
    except ModelError as e:
        print(str(e), file=sys.stderr)
        return EXIT_FINDINGS
    for p in paths:
        print(" -> ".join(p))
    return EXIT_OK


def cmd_conform(args) -> int:
    cmset = _load_entry_set(args)
    summary = conformance.conform_text(
        cmset, args.entry, _read_input(args.traces), workers=args.workers
    )
    if args.format == "json":
        print(json.dumps(summary.as_dict(), sort_keys=True, indent=2))
    else:
        print(f"traces:        {summary.n}")
        print(f"conformant:    {summary.conformant}")
        print(f"non-conformant:{summary.non_conformant:>5}")
        print(f"undetermined:  {summary.undetermined}")
        for node, count in summary.top_divergence_points:
            print(f"  divergence at {node}: {count}")
        for err in summary.load_errors:
            print(f"  load error: {err}", file=sys.stderr)
    failing = summary.non_conformant
    if args.fail_undetermined:
        failing += summary.undetermined
    return EXIT_FINDINGS if failing else EXIT_OK


def cmd_ingest(args) -> int:
    cmset = _load_set(args.caremaps)
    rows = ingest.read_rows(_read_input(args.csv))
    model = ingest.derive_model(rows, cmset, seed=args.seed)
    _write_atomic(args.out, synthesis.model_to_json(model))
    return EXIT_OK


def _synth_chunk(stm: synthesis.STM, seed: int, indices: range) -> str:
    return "".join(synthesis.generate_line(stm, seed, i) + "\n" for i in indices)


def _synth_pieces(stm: synthesis.STM, count: int, seed: int, workers: int) -> Iterator[str]:
    """The JSONL text synth writes, piece by piece: the provenance header line,
    then the trace lines.

    One process yields one line per piece. A pool of k = min(workers, count,
    CPU count) processes yields one piece per chunk of at most SYNTH_CHUNK
    traces, in order, in at least k chunks (see conformance.fan_out).
    """
    yield synthesis.provenance_header(stm, seed) + "\n"
    k = conformance.pool_size(workers, count)
    if k <= 1:
        for i in range(count):
            yield synthesis.generate_line(stm, seed, i) + "\n"
        return
    size = min(SYNTH_CHUNK, -(-count // k))  # ceil(count / k): at least k chunks
    chunks = (range(a, min(a + size, count)) for a in range(0, count, size))
    yield from conformance.fan_out(_synth_chunk, chunks, k, stm, seed)


def _load_stm(args) -> synthesis.STM:
    cmset = _load_entry_set(args)
    model = synthesis.model_from_json(_read_input(args.model))
    return synthesis.compile_stm(cmset, args.entry, model)


def cmd_synth(args) -> int:
    stm = _load_stm(args)
    # closed here, so a pool is shut down before an error leaves
    with contextlib.closing(_synth_pieces(stm, args.count, args.seed, args.workers)) as pieces:
        _write_atomic(args.out, pieces)
    return EXIT_OK


def cmd_synth_check(args) -> int:
    stm = _load_stm(args)
    if not args.traces and args.count is None:
        print("synth-check needs --traces or -n/--seed", file=sys.stderr)
        return EXIT_USAGE
    # -n replays exactly what synth -n --seed would write, as --traces does
    summary = conformance.conform_text(
        stm.cmset,
        args.entry,
        _read_input(args.traces)
        if args.traces
        else "".join(_synth_pieces(stm, args.count, args.seed, 1)),
    )
    report = synthesis.edge_report(stm, summary)
    if args.format == "json":
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    else:
        for row in report.rows:
            print(
                f"{row.caremap}.{row.node} {row.edge}: expected {row.expected:.6f} "
                f"empirical {row.empirical:.6f} delta {row.delta:.6f}"
            )
        print(f"max delta: {report.max_delta:.6f} (tolerance {args.tolerance})")
        if report.unmatched_traces:
            print(f"unmatched traces: {report.unmatched_traces}", file=sys.stderr)
    for err in summary.load_errors:
        print(f"  load error: {err}", file=sys.stderr)
    return EXIT_FINDINGS if report.max_delta > args.tolerance else EXIT_OK


def _at_least(low: int, kind: type = int) -> Callable[[str], float]:
    """argparse type: an integer, or a number if kind is float, >= low (NaN is not)."""

    def parse(text: str) -> float:
        try:
            n = kind(text)
        except ValueError:
            n = low - 1
        if not n >= low:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"expected {noun} >= {low}, got {text!r}")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tasc", description="Caremap toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check caremap files against the structural rules")
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fmt", help="rewrite a file in canonical form")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--check", action="store_true", help="exit 1 if not already canonical")
    p.add_argument("--stdout", action="store_true", help="print instead of rewriting in place")
    p.set_defaults(func=cmd_fmt)

    p = sub.add_parser("render", help="emit a DOT graph description")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--out", required=True, metavar="DOTFILE")
    p.add_argument("--style", choices=sorted(render.PROFILES), default="mono")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("paths", help="enumerate entry-to-terminal walks")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--caremap", required=True, metavar="ID")
    p.add_argument("--cycle-bound", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("conform", help="replay patient traces against a caremap set")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--traces", required=True, metavar="JSONL")
    p.add_argument("--entry", required=True, metavar="ID")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--fail-undetermined", action="store_true")
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.set_defaults(func=cmd_conform)

    p = sub.add_parser("ingest", help="derive a transition model from contingency CSV")
    p.add_argument("csv", metavar="CSV")
    p.add_argument("--caremaps", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="MODEL.json")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate synthetic patient traces")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--model", required=True, metavar="MODEL.json")
    p.add_argument("--entry", required=True, metavar="ID")
    p.add_argument("-n", "--count", type=_at_least(0), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, metavar="JSONL")
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("synth-check", help="compare empirical branch frequencies to the model")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--model", required=True, metavar="MODEL.json")
    p.add_argument("--entry", required=True, metavar="ID")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--traces", metavar="JSONL")
    source.add_argument("-n", "--count", type=_at_least(0))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=_at_least(0, float), default=0.02)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_synth_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit writes the rest quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    except CliUsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    # ValueError covers dsl.ParseFailure, ingest.IngestError, synthesis.CompileError,
    # synthesis.UndecidedBranch, conformance.AmbiguousLabel and conformance.TraceFormatError
    except (CliIOError, ValueError, synthesis.StepCapExceeded) as e:
        print(str(e), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
