"""Self-test of the benchmark's references and checks.

    python3 perfbench/selftest.py

First the references are checked against one another on small inputs
(sieve, round-robin table, literal Frobenius formulas, skew-binary
digits).  Then, for each kind of check, a right output of the program is
shown to pass and a deliberately wrong copy of it to fail.  Exits 1 on
the first test that does not hold.
"""

from __future__ import annotations

import json
import random
import sys

import run
import reference as ref
from checks import Checker
from workloads import Command, grid

gtsg = run.import_gtsg()


def output(argv) -> str:
    _, status, out = run.run_command(gtsg, argv)
    assert status == 0, (argv, status)
    return out


def assert_caught(cmd, good: str, bad: str) -> None:
    assert good != bad, "the wrong output equals the right one"
    assert Checker().check(cmd, good) == [], (cmd.argv, Checker().check(cmd, good))
    assert Checker().check(cmd, bad), f"{cmd.argv}: a wrong output passed"


def test_references_agree():
    rng = random.Random(7)
    for _ in range(200):
        gens = sorted(rng.sample(range(2, 60), rng.randint(2, 5)))
        if ref.gcd_all(gens) != 1:
            continue
        sieved = ref.sieve_summary(gens)
        table = ref.apery_table(gens)
        assert table == sieved["apery"], gens
        assert max(table) - gens[0] == sieved["frobenius"], gens
        assert ref.genus_from_table(gens[0], table) == sieved["genus"], gens
    for length in range(8):
        for target in range(2 * (2**length - 1) + 1):
            digits = ref.skew_binary(target, length)
            assert sum(t * (2**i - 1) for i, t in enumerate(digits, 1)) == target
    for n in range(6):
        for k in range(1, 7):
            gens = ref.gt_generators(n, k)
            if gens[0] * gens[-1] < 200_000:
                assert ref.sieve_summary(gens)["frobenius"] == ref.frobenius_reference(n, k)


def test_round_robin_beyond_int64():
    # Ap(<m, b>) = {i*b : 0 <= i < m}; 2b and b + 5m are redundant generators
    m, b = 1009, 2**62 + 3
    assert b % m
    for gens in ([m, b], [m, b, 2 * b], [m, b, b + 5 * m]):
        assert m * max(gens) >= ref.INT64_SAFE
        assert sorted(ref.apery_table(gens)) == [i * b for i in range(m)]


def test_verify_check():
    s0_max = 300
    cmd = Command(["verify", "--s0-max", str(s0_max)], "verify", 0, {"s0_max": s0_max})
    good = output(cmd.argv)
    assert_caught(cmd, good, good.replace("match", "MISMATCH", 1))
    lines = good.splitlines(keepends=True)
    assert_caught(cmd, good, "".join(lines[1:]))
    assert len(grid(s0_max)) == len(lines) - 1


def _apery_cmd(n, k, fmt, coeffs):
    argv = ["apery", "--n", str(n), "--k", str(k), "--format", fmt]
    if coeffs:
        argv.append("--with-coeffs")
    return Command(argv, "apery", 0, {"n": n, "k": k, "format": fmt, "coeffs": coeffs})


def test_apery_checks():
    for n, k in [(3, 1), (4, 2), (3, 3), (2, 5)]:
        s0 = ref.gt_generator(n, k, 0)
        for fmt in ("text", "csv", "json"):
            for coeffs in (False, True):
                cmd = _apery_cmd(n, k, fmt, coeffs)
                good = output(cmd.argv)
                top = str(ref.max_apery_reference(n, k))
                # the largest value moved up by s_0: same residue, not least
                assert_caught(cmd, good, good.replace(top, str(int(top) + s0)))
                if fmt == "json":
                    data = json.loads(good)
                    data["apery"][1] = str(int(data["apery"][1]) + s0)
                    assert_caught(cmd, good, json.dumps(data, sort_keys=True))
                if coeffs and fmt == "text":
                    lines = good.splitlines()
                    value, *digits = lines[-1].split()
                    digits[0] = str(int(digits[0]) ^ 1)
                    bad = "\n".join(lines[:-1] + [" ".join([value] + digits)]) + "\n"
                    assert_caught(cmd, good, bad)
                if fmt == "csv":
                    lines = good.split("\r\n")
                    residue, rest = lines[2].split(",", 1)
                    lines[2] = f"{int(residue) + 1},{rest}"
                    assert_caught(cmd, good, "\r\n".join(lines))


def test_closed_form_checks():
    for n, k in [(5, 1), (6, 2), (7, 4), (4, 4), (3, 9), (0, 5), (1, 2)]:
        for fmt in ("text", "json", "csv"):
            params = {"n": n, "k": k, "format": fmt}
            argv = ["--n", str(n), "--k", str(k), "--format", fmt]
            frob = str(ref.frobenius_reference(n, k))
            cmd = Command(["frobenius", *argv], "frobenius", 1, params)
            good = output(cmd.argv)
            assert_caught(cmd, good, good.replace(frob, str(int(frob) + 1)))
            cmd = Command(["info", *argv], "info", 1, params)
            good = output(cmd.argv)
            assert_caught(cmd, good, good.replace(frob, str(int(frob) - 1)))
            genus = ref.genus_from_table(ref.gt_generator(n, k, 0),
                                         ref.apery_table(ref.gt_generators(n, k)))
            bad = good.replace(f"genus = {genus}", f"genus = {genus + 1}")
            bad = bad.replace(f'"genus": "{genus}"', f'"genus": "{genus + 1}"')
            bad = bad.replace(f",{genus}\r\n", f",{genus + 1}\r\n")
            assert_caught(cmd, good, bad)


FLIP = {
    "text": [("not-member", "member"), ("member", "not-member")],
    "json": [('"member": true', '"member": false'), ('"member": false', '"member": true')],
    "csv": [(",True", ",False"), (",False", ",True")],
}


def test_oracle_checks():
    gens = [1009, 1013 + 2**62, 1500 + 2**62]
    table = ref.apery_table(gens)
    values = {"apery": max(table), "frobenius": max(table) - gens[0],
              "genus": ref.genus_from_table(gens[0], table)}
    for fmt in ("text", "json", "csv"):
        for what, x in [("apery", None), ("frobenius", None), ("genus", None),
                        ("membership", gens[1] + gens[2]), ("membership", gens[1] + 1)]:
            params = {"what": what, "gens": gens, "format": fmt, "x": x}
            argv = ["oracle", what, "--gens", ",".join(map(str, gens)), "--format", fmt]
            if x is not None:
                argv += ["--x", str(x)]
            cmd = Command(argv, "oracle", gens[0], params)
            good = output(argv)
            if what == "membership":
                old, new = next(pair for pair in FLIP[fmt] if pair[0] in good)
                bad = good.replace(old, new)
            else:
                bad = good.replace(str(values[what]), str(values[what] + 1))
            assert_caught(cmd, good, bad)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
