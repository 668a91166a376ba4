"""Every output byte and exit status of a fixed set of commands, pinned by
digest.

``output_digests.json`` holds, for each command line below, the exit
status and the SHA-256 of its stdout and of its stderr, as written by
``cli.main``.  The set covers every subcommand and format, ``apery`` with
and without ``--with-coeffs``, usage and cap errors, and outputs past
1 MiB.  A change to how output is built or written must leave every digest
as it is.  When an output is meant to change, rewrite the table with

    PYTHONPATH=src python tests/test_output_digests.py --write
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

TABLE = Path(__file__).with_name("output_digests.json")

FORMATS = ("text", "json", "csv")


def commands() -> list[list[str]]:
    out = []
    for fmt in FORMATS:
        f = ["--format", fmt]
        # one point of every case: n = 0, k = 1, (1, 2), k < n, k = n, k > n
        for n, k in [(0, 1), (0, 3), (2, 1), (1, 2), (4, 2), (3, 3), (2, 5)]:
            nk = ["--n", str(n), "--k", str(k), *f]
            out += [["info", *nk], ["apery", *nk], ["apery", *nk, "--with-coeffs"],
                    ["frobenius", *nk]]
        # past 1 MiB of stdout
        out += [["info", "--n", "2000", "--k", "1500", *f],
                ["apery", "--n", "8", "--k", "8", *f],
                ["apery", "--n", "8", "--k", "8", *f, "--with-coeffs"]]
        # the genus past the enumeration cap, and big closed forms
        out += [["info", "--n", "20", "--k", "3", *f],
                ["frobenius", "--n", "3", "--k", "9000", *f]]
        out += [["oracle", "apery", "--gens", "7,11,13", *f],
                ["oracle", "apery", "--gens", "7,11,13", "--x", "11", *f],
                ["oracle", "frobenius", "--gens", "7,11,13", *f],
                ["oracle", "genus", "--gens", "37,77,157", *f],
                ["oracle", "membership", "--gens", "7,11,13", "--x", "30", *f],
                ["oracle", "membership", "--gens", "7,11,13", "--x", "15", *f],
                ["verify", "--s0-max", "300", *f]]
        # errors: bad input, the cap, a gcd, an empty grid
        out += [["info", "--n", "-1", "--k", "2", *f],
                ["apery", "--n", "1", "--k", "0", *f],
                ["apery", "--n", "30", "--k", "3", *f],
                ["oracle", "frobenius", "--gens", "4,6", *f],
                ["oracle", "frobenius", "--gens", "-3,5", *f],
                ["verify", "--s0-max", "1", "--n-max", "0", "--k-max", "0", *f]]
    out += [["apery", "--n", "2", "--k", "2", "--force"], ["frobenius", "--n", "x", "--k", "2"]]
    return out


def digests(argv: list[str]) -> dict:
    """The exit status and the SHA-256 of stdout and stderr of one command."""
    from gtsg import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(argv))
    except SystemExit as exc:   # argparse's usage errors
        status = exc.code
    return {"argv": " ".join(argv), "status": status,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def test_every_output_matches_its_digest(monkeypatch):
    monkeypatch.delenv("GTSG_S0_CAP", raising=False)
    table = json.loads(TABLE.read_text())
    assert [row["argv"] for row in table] == [" ".join(argv) for argv in commands()]
    changed = [(row["argv"], got)
               for row, got in zip(table, map(digests, commands())) if got != row]
    assert not changed, changed


def test_the_table_covers_every_builder():
    # a builder is one subcommand, and for oracle one ``what``, in one
    # format; it runs only on a command that exits 0
    from gtsg import cli

    sub = next(action for action in cli._PARSER._actions
               if isinstance(action, argparse._SubParsersAction))
    whats = next(action.choices for action in sub.choices["oracle"]._actions
                 if action.dest == "what")
    wanted = {(name, what, fmt) for name in sub.choices for fmt in FORMATS
              for what in (whats if name == "oracle" else [None])}
    ran = [cli._PARSER.parse_args(cli._glue_gens(row["argv"].split()))
           for row in json.loads(TABLE.read_text()) if row["status"] == 0]
    covered = {(args.command, getattr(args, "what", None), args.format) for args in ran}
    assert wanted - covered == set()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.environ.pop("GTSG_S0_CAP", None)
    TABLE.write_text(json.dumps([digests(argv) for argv in commands()], indent=1) + "\n")
