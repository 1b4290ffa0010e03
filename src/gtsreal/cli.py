"""Command-line surface: evaluate query documents, run the corpus battery,
print the grammar.  The only global options are `--report PATH` and
`--format human|machine`: no cap bounds an answer, so none is settable.
Exit code 0 iff no query or suite entry failed; 2 on bad flags, a document
that does not parse or cannot be read, and a report that cannot be
written."""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

from gtsreal.queries import GRAMMAR, ParseError, parse
from gtsreal.report import Report, corpus_verify, run


class _FileError(Exception):
    """A document that cannot be read or a report that cannot be written:
    `main` prints it as one line and exits 2."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise _FileError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise _FileError(f"cannot read {path}: not UTF-8 (byte 0x{e.object[e.start]:02x} "
                          f"at offset {e.start})") from None


def _emit(report: Report, fmt: str, path):
    text = report.machine_text() if fmt == "machine" else report.human_text()
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise _FileError(f"cannot write the report to {path}: {e.strerror or e}") from None


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves no state
    in it, so every call of `main` shares it."""
    parser = argparse.ArgumentParser(
        prog="gtsreal",
        description="exact decision procedures for generalized-topology real lines")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the report to a file instead of stdout")
    parser.add_argument("--format", choices=("human", "machine"), default="human")
    sub = parser.add_subparsers(dest="command", required=True)
    p_eval = sub.add_parser("eval", help="evaluate a query document")
    p_eval.add_argument("file", help="UTF-8 query document")
    sub.add_parser("corpus", help="run the built-in verification battery")
    sub.add_parser("print-grammar", help="print the query grammar")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _command(args)
    except _FileError as e:
        sys.stderr.write(f"gtsreal: {e}\n")
        return 2


def _command(args) -> int:
    if args.command == "print-grammar":
        sys.stdout.write(GRAMMAR)
        return 0
    if args.command == "corpus":
        report = corpus_verify()
        _emit(report, args.format, args.report)
        return 0 if report.failures == 0 else 1
    try:
        doc = parse(_read(args.file))
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 2
    report = run(doc)
    _emit(report, args.format, args.report)
    return 0 if report.failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
