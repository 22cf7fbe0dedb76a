#!/usr/bin/env bash
# The smoke checks: the CLI run end to end, one block a check, on the
# `python` found first on PATH, each command's status checked as `bash -e`
# does. Every file they write goes into DIR. tests/test_cli.py runs this
# script under the interpreter that runs the test suite.
#
# Usage: tests/smoke.sh DIR
set -e
# each check writes under $RUNNER_TEMP, as it would as a CI step
RUNNER_TEMP=$(cd "${1:?usage: tests/smoke.sh DIR}" && pwd)
cd "$(dirname "$0")/.."

echo "== Smoke run of verify"
PYTHONPATH=src python -W error -m orthocat verify 3 3

echo "== Smoke run of verify on the dense build and the quotient minimize"
PYTHONPATH=src python -W error -m orthocat verify 10 12

echo "== Smoke run of verify on Moore's hashed rounds"
PYTHONPATH=src python -W error -m orthocat verify 12 14 > "$RUNNER_TEMP/verify_12_14.txt"
grep -x "ok: minimized size matches the predicted bound" "$RUNNER_TEMP/verify_12_14.txt"

echo "== Smoke run of ortho on the numpy search route"
PYTHONPATH=src python -W error -m orthocat witness a 200 > "$RUNNER_TEMP/a200.txt"
PYTHONPATH=src python -W error -m orthocat witness b 200 > "$RUNNER_TEMP/b200.txt"
verdict=$(PYTHONPATH=src python -W error -m orthocat ortho "$RUNNER_TEMP/a200.txt" "$RUNNER_TEMP/b200.txt")
test "$verdict" = orthogonal
status=0
PYTHONPATH=src python -W error -m orthocat ortho "$RUNNER_TEMP/b200.txt" "$RUNNER_TEMP/a200.txt" > "$RUNNER_TEMP/ortho.txt" || status=$?
test "$status" -eq 1
# the verdict, the 397-letter word and its two splits
test "$(wc -l < "$RUNNER_TEMP/ortho.txt")" -eq 4
word=$(sed -n 's/^word: //p' "$RUNNER_TEMP/ortho.txt")
test "${#word}" -eq 397
# and every byte of them
echo "8e2a7d74ada828bec3309828cb0b71afaa6712339fd9416b464f72f8fc1fd948  $RUNNER_TEMP/ortho.txt" | sha256sum -c -

echo "== Smoke run of cat, min and eq on parsed files"
PYTHONPATH=src python -W error -m orthocat witness a 10 > "$RUNNER_TEMP/a10.txt"
PYTHONPATH=src python -W error -m orthocat witness b 12 > "$RUNNER_TEMP/b12.txt"
PYTHONPATH=src python -W error -m orthocat cat "$RUNNER_TEMP/a10.txt" "$RUNNER_TEMP/b12.txt" -o "$RUNNER_TEMP/c.txt"
PYTHONPATH=src python -W error -m orthocat min "$RUNNER_TEMP/c.txt" -o "$RUNNER_TEMP/c2.txt"
cmp "$RUNNER_TEMP/c.txt" "$RUNNER_TEMP/c2.txt"
grep -x "states 19456" "$RUNNER_TEMP/c.txt"
# state ids reversed: the file is no longer breadth-first, so min
# renumbers its quotient and must give the same bytes
PYTHONPATH=src python -c 'import sys; from orthocat import Dfa, parse_automaton, serialize_automaton; d = parse_automaton(open(sys.argv[1]).read()); n = d.state_count; rows = [[n - 1 - t for t in row] for row in reversed(d.delta)]; open(sys.argv[2], "w").write(serialize_automaton(Dfa(d.alphabet, rows, n - 1 - d.start, [n - 1 - q for q in d.accepting])))' "$RUNNER_TEMP/c.txt" "$RUNNER_TEMP/c_reversed.txt"
grep -x "start 19455" "$RUNNER_TEMP/c_reversed.txt"
PYTHONPATH=src python -W error -m orthocat min "$RUNNER_TEMP/c_reversed.txt" -o "$RUNNER_TEMP/c2_reversed.txt"
cmp "$RUNNER_TEMP/c2_reversed.txt" "$RUNNER_TEMP/c2.txt"
verdict=$(PYTHONPATH=src python -W error -m orthocat eq "$RUNNER_TEMP/c.txt" "$RUNNER_TEMP/c2.txt")
test "$verdict" = equivalent
# tab-separated: still the bulk parse
sed 's/ /\t/g' "$RUNNER_TEMP/c.txt" > "$RUNNER_TEMP/c_tabs.txt"
verdict=$(PYTHONPATH=src python -W error -m orthocat eq "$RUNNER_TEMP/c_tabs.txt" "$RUNNER_TEMP/c2.txt")
test "$verdict" = equivalent
# the first transition's state padded to 19 digits: its leading zeros
# do not count toward the 18 digits a state number may have
awk 'NR == 5 { $1 = sprintf("%019d", $1) } 1' "$RUNNER_TEMP/c.txt" > "$RUNNER_TEMP/c_pad.txt"
grep -qx "0000000000000000000 a [0-9]*" "$RUNNER_TEMP/c_pad.txt"
verdict=$(PYTHONPATH=src python -W error -m orthocat eq "$RUNNER_TEMP/c_pad.txt" "$RUNNER_TEMP/c2.txt")
test "$verdict" = equivalent
# a comment line in front and a trailing comment on line 5
sed '1i # header' "$RUNNER_TEMP/c.txt" | sed '5s/$/ # accepting states/' > "$RUNNER_TEMP/c_comments.txt"
grep -q "^accepting .* # accepting states$" "$RUNNER_TEMP/c_comments.txt"
verdict=$(PYTHONPATH=src python -W error -m orthocat eq "$RUNNER_TEMP/c_comments.txt" "$RUNNER_TEMP/c2.txt")
test "$verdict" = equivalent
# symbols renamed to multi-byte and prefix-sharing names in both
# files, the same map on every token, so header and transitions agree
PYTHONPATH=src python -c 'import sys; m = {"a": "\u00e9", "b": "ab", "c": "a", "d": "\u6f22\u5b57"}; [open(f"{sys.argv[1]}/{f}_renamed.txt", "w", encoding="utf-8").write("".join(" ".join(m.get(t, t) for t in line.split()) + "\n" for line in open(f"{sys.argv[1]}/{f}.txt", encoding="utf-8"))) for f in ("c", "c2")]' "$RUNNER_TEMP"
test "$(head -n 1 "$RUNNER_TEMP/c_renamed.txt")" = "alphabet é ab a 漢字"
verdict=$(PYTHONPATH=src python -W error -m orthocat eq "$RUNNER_TEMP/c_renamed.txt" "$RUNNER_TEMP/c2_renamed.txt")
test "$verdict" = equivalent
# a renamed file against an unrenamed one: the alphabets differ
status=0
PYTHONPATH=src python -W error -m orthocat eq "$RUNNER_TEMP/c_renamed.txt" "$RUNNER_TEMP/c2.txt" > /dev/null 2>&1 || status=$?
test "$status" -eq 2
status=0
PYTHONPATH=src python -W error -m orthocat eq "$RUNNER_TEMP/a10.txt" "$RUNNER_TEMP/b12.txt" > /dev/null || status=$?
test "$status" -eq 1
# all-accepting unary cycles of 2,000 and 2,001 states: one word
# reaches every one of their 4,002,000 pairs of states
PYTHONPATH=src python -c 'import sys; from orthocat import Dfa, serialize_automaton; [open(f"{sys.argv[1]}/cycle{n}.txt", "w").write(serialize_automaton(Dfa("a", [((q + 1) % n,) for q in range(n)], 0, range(n)))) for n in (2000, 2001)]' "$RUNNER_TEMP"
verdict=$(PYTHONPATH=src timeout 10 python -W error -m orthocat eq "$RUNNER_TEMP/cycle2000.txt" "$RUNNER_TEMP/cycle2001.txt")
test "$verdict" = equivalent

echo "== Smoke run of min on Moore's congruence check"
# the unminimized (10,12) catenation DFA, 38,912 states: Moore's
# hashed rounds stop short of single states, the congruence check
# must pass on them, and min must give the bytes of the c.txt above
PYTHONPATH=src python -c 'import sys; from orthocat import build_catenation_dfa, serialize_automaton, witness_a, witness_b; open(sys.argv[1], "w").write(serialize_automaton(build_catenation_dfa(witness_a(10), witness_b(12)).dfa))' "$RUNNER_TEMP/c_unminimized.txt"
grep -x "states 38912" "$RUNNER_TEMP/c_unminimized.txt"
PYTHONPATH=src python -W error -m orthocat min "$RUNNER_TEMP/c_unminimized.txt" > "$RUNNER_TEMP/c2_unminimized.txt"
cmp "$RUNNER_TEMP/c2_unminimized.txt" "$RUNNER_TEMP/c.txt"

echo "== Smoke run of cat past the build's size budget"
PYTHONPATH=src python -W error -m orthocat witness a 3 > "$RUNNER_TEMP/a3.txt"
PYTHONPATH=src python -W error -m orthocat witness b 30 > "$RUNNER_TEMP/b30.txt"
# refused with exit 2, not a build of up to 3 * 2**30 states
status=0
PYTHONPATH=src timeout 10 python -W error -m orthocat cat "$RUNNER_TEMP/a3.txt" "$RUNNER_TEMP/b30.txt" 2> "$RUNNER_TEMP/cat_err.txt" || status=$?
test "$status" -eq 2
grep -q "limit of 16777216 cells" "$RUNNER_TEMP/cat_err.txt"

echo "== Smoke run of cat past the build's size budget over 256 letters"
# a 1-state all-accepting a and a random 30-state b over s0 ... s255:
# each row the build's dict loop expands holds 256 cells, and the
# loop must refuse by the cells it holds, not by the states it finds
PYTHONPATH=src python -c '
import sys
from orthocat import Dfa, serialize_automaton
from orthocat.randgen import splitmix64_stream
names, draws = [f"s{i}" for i in range(256)], splitmix64_stream(0x30300001)
b = Dfa(names, [[next(draws) % 30 for _ in names] for _ in range(30)], 0, [q for q in range(30) if next(draws) & 1])
open(f"{sys.argv[1]}/wide_a.txt", "w").write(serialize_automaton(Dfa(names, [[0] * 256], 0, [0])))
open(f"{sys.argv[1]}/wide_b.txt", "w").write(serialize_automaton(b))
' "$RUNNER_TEMP"
status=0
PYTHONPATH=src timeout 10 python -W error -m orthocat cat "$RUNNER_TEMP/wide_a.txt" "$RUNNER_TEMP/wide_b.txt" 2> "$RUNNER_TEMP/wide_err.txt" || status=$?
test "$status" -eq 2
grep -q "limit of 16777216 cells" "$RUNNER_TEMP/wide_err.txt"
