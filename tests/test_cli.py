import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import orthocat
from orthocat import (
    AmbiguityWitness,
    enumerate_accepted,
    general_upper_bound,
    language_equivalent,
    parse_automaton,
    witness_a,
    witness_b,
)
from orthocat.cli import CSV_HEADER, SweepRow, cmd_sweep, cmd_verify, main
from orthocat.fileformat import serialize_automaton as dump

from test_catenation import single_word_dfa
from test_orthogonality import epsilon_or_x_dfa


def drop_elapsed(csv_text: str) -> str:
    return "\n".join(",".join(line.split(",")[:-1]) for line in csv_text.splitlines())


class TestVerify:
    def test_3_3(self):
        row = cmd_verify(3, 3)
        assert (row.m, row.n) == (3, 3)
        assert row.predicted == row.minimized == 10
        assert row.constructed == 20
        assert row.orthogonal
        assert row.elapsed_ms >= 0

    def test_rejects_small_arguments(self):
        with pytest.raises(ValueError):
            cmd_verify(2, 3)

    def test_cli_exit_status_and_output(self, capsys):
        assert main(["verify", "3", "4"]) == 0
        out = capsys.readouterr().out
        assert "minimized=20" in out and "orthogonal=true" in out

    def test_cli_usage_error(self, capsys):
        assert main(["verify", "1", "3"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("m,n", [(3, 22), (100_000, 3)], ids=["build", "oracle"])
    def test_cli_refuses_oversized_pair_fast(self, capsys, m, n):
        t0 = time.perf_counter()
        assert main(["verify", str(m), str(n)]) == 2
        assert time.perf_counter() - t0 < 1
        assert f"limit of {1 << 24} cells" in capsys.readouterr().err

    def test_cli_rejects_non_positive_argument(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "0", "3"])
        assert info.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_cli_bound_mismatch_is_a_failed_check(self, monkeypatch, capsys):
        monkeypatch.setattr("orthocat.cli.orthogonal_upper_bound", lambda m, n: 0)
        assert main(["verify", "3", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("m=3 n=3 predicted=0 constructed=20 minimized=10 orthogonal=true ")
        assert lines[1:] == ["MISMATCH: minimized size differs from the predicted bound"]

    def test_oracle_disagreement_is_a_failed_check(self, monkeypatch, capsys):
        fabricated = AmbiguityWitness((0,), ((), (0,)), ((0,), ()))
        monkeypatch.setattr("orthocat.cli.brute_force_orthogonal", lambda a, b, n: fabricated)
        assert main(["verify", "3", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            "MISMATCH: orthogonality decision and brute-force scan disagree for (3, 3)\n"
        )
        assert captured.err == ""


class TestSweep:
    def test_shape_and_values(self, tmp_path):
        out = tmp_path / "rows.csv"
        rows = cmd_sweep(4, 4, out)
        assert len(rows) == 4
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[:3] == ["3", "3", "10"] and first[4] == "10" and first[5] == "true"

    def test_rows_obey_the_general_ceiling(self, tmp_path):
        rows = cmd_sweep(5, 4, tmp_path / "r.csv")
        for row in rows:
            assert row.minimized <= row.constructed <= general_upper_bound(row.m, row.n)
            assert row.minimized == row.predicted

    def test_deterministic_modulo_elapsed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cmd_sweep(4, 5, a)
        cmd_sweep(4, 5, b)
        assert drop_elapsed(a.read_text()) == drop_elapsed(b.read_text())

    def test_bounds_checked(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_sweep(11, 3, tmp_path / "x.csv")
        assert main(["sweep", "3", "11", "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_path(self, tmp_path):
        assert main(["sweep", "3", "3", "--out", str(tmp_path / "nodir" / "x.csv")]) == 2

    def test_cli_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "3", "4", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 2 rows to {out}\n"
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_cli_bound_mismatch_is_a_failed_check(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("orthocat.cli.orthogonal_upper_bound", lambda m, n: 0)
        out = tmp_path / "rows.csv"
        assert main(["sweep", "3", "4", "--out", str(out)]) == 1
        assert capsys.readouterr().out == f"wrote 2 rows to {out}\nMISMATCH in 2 rows\n"

    def test_header_names_the_row_fields(self):
        assert CSV_HEADER.split(",") == [f.name for f in dataclasses.fields(SweepRow)]


class TestOrtho:
    def test_witness_files_are_orthogonal(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text(dump(witness_a(3)))
        fb.write_text(dump(witness_b(3)))
        assert main(["ortho", str(fa), str(fb)]) == 0
        assert capsys.readouterr().out.strip() == "orthogonal"

    def test_ambiguous_pair_prints_witness(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text(dump(epsilon_or_x_dfa()))
        assert main(["ortho", str(f), str(f)]) == 1
        out = capsys.readouterr().out
        assert "not orthogonal" in out
        assert "word: x" in out
        assert "split 1: ε · x" in out
        assert "split 2: x · ε" in out

    def test_malformed_file(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("alphabet a\nstates 1\n")
        assert main(["ortho", str(f), str(f)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["ortho", "FILE", "FILE"], ["min", "FILE"]])
    def test_non_utf8_file_is_a_format_error(self, tmp_path, capsys, command):
        f = tmp_path / "binary.dfa"
        f.write_bytes(b"\xff")
        argv = [str(f) if arg == "FILE" else arg for arg in command]
        assert main(argv) == 2
        assert "not UTF-8 text (byte 0)" in capsys.readouterr().err


BIG = "x" * 1_000_000
ONE_STATE = "states 1\nstart 0\naccepting 0\n"


def wide_alphabet_file(k: int) -> str:
    names = [f"s{i}" for i in range(k)]
    return f"alphabet {' '.join(names)}\n{ONE_STATE}" + "".join(f"0 {s} 0\n" for s in names)


class TestBoundedErrors:
    """An oversized token or alphabet gives a short message, not megabytes."""

    @pytest.mark.parametrize(
        "command,files",
        [
            pytest.param(["min"], [f"alphabet a\n{ONE_STATE}0 {BIG} 0\n"], id="unknown-symbol"),
            pytest.param(
                ["min"], [f"alphabet a\nstates {'1' * 1_000_000}\nstart 0\naccepting 0\n0 a 0\n"],
                id="integer",
            ),
            pytest.param(["min"], [f"alphabet {chr(1) * 1_000_000}\n{ONE_STATE}"], id="alphabet-symbol"),
            pytest.param(
                ["ortho"], [wide_alphabet_file(50_000), wide_alphabet_file(1)], id="alphabet-mismatch"
            ),
            pytest.param(
                ["min"], [f"alphabet {BIG}\n{ONE_STATE}0 {BIG} 0\n0 {BIG} 0\n"], id="duplicate-transition"
            ),
            pytest.param(["min"], [f"alphabet a {BIG}\n{ONE_STATE}0 a 0\n"], id="missing-transition"),
        ],
    )
    def test_exit_2_with_short_stderr(self, tmp_path, capsys, command, files):
        paths = []
        for i, text in enumerate(files):
            paths.append(tmp_path / f"{i}.dfa")
            paths[-1].write_text(text)
        assert main(command + [str(p) for p in paths]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "more characters)" in err
        assert len(err.encode()) < 1024


class TestFileSubcommands:
    def test_cat_emits_minimal_catenation(self, tmp_path):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text(dump(single_word_dfa("a", ("a", "b"))))
        fb.write_text(dump(single_word_dfa("b", ("a", "b"))))
        out = tmp_path / "cat.txt"
        assert main(["cat", str(fa), str(fb), "-o", str(out)]) == 0
        d = parse_automaton(out.read_text())
        assert enumerate_accepted(d, 3) == [(0, 1)]

    def test_min_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "src.txt"
        # two redundant sink states collapse into one
        src.write_text(
            "alphabet a\nstates 3\nstart 0\naccepting 0\n0 a 1\n1 a 2\n2 a 1\n"
        )
        assert main(["min", str(src)]) == 0
        out = capsys.readouterr().out
        assert parse_automaton(out).state_count == 2

    def test_eq_statuses(self, tmp_path, capsys):
        fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
        fa.write_text(dump(witness_a(3)))
        fb.write_text(dump(witness_b(3)))
        assert main(["eq", str(fa), str(fa)]) == 0
        assert main(["eq", str(fa), str(fb)]) == 1

    def test_witness_subcommand_round_trips(self, tmp_path):
        out = tmp_path / "w.txt"
        assert main(["witness", "a", "4", "-o", str(out)]) == 0
        assert parse_automaton(out.read_text()) == witness_a(4)
        assert main(["witness", "b", "3", "-o", str(out)]) == 0
        assert parse_automaton(out.read_text()) == witness_b(3)

    def test_witness_size_too_small(self, capsys):
        assert main(["witness", "a", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_emitted_files_reparse_equivalently(self, tmp_path, capsys):
        assert main(["witness", "a", "5"]) == 0
        text = capsys.readouterr().out
        assert language_equivalent(parse_automaton(text), witness_a(5))


class TestNfaBound:
    def test_reports_sum_and_bound(self, capsys):
        assert main(["nfa-bound", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "nfa states: 5" in out
        assert "certified lower bound: 5" in out


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's orthocat,
    whether or not the package is installed."""
    package_parent = str(Path(orthocat.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestConsoleScript:
    def check_verify_3_3(self, module: str) -> None:
        result = run_python("-m", module, "verify", "3", "3")
        assert result.returncode == 0
        assert result.stderr == ""
        assert "minimized=10" in result.stdout

    def test_installed_entry_point(self):
        self.check_verify_3_3("orthocat.cli")

    def test_package_main(self):
        self.check_verify_3_3("orthocat")

    def test_package_root_does_not_load_the_cli(self):
        result = run_python(
            "-c", "import sys, orthocat; print(sorted({'orthocat.cli', 'argparse'} & set(sys.modules)))"
        )
        assert result.returncode == 0
        assert result.stdout == "[]\n"


HUGE = "9" * 4300  # the most digits int() converts


class TestBoundedNumbers:
    """An out-of-range state number is cut like a quoted token."""

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(
                f"alphabet a\nstates {HUGE}\nstart {HUGE}\naccepting\n", id="states-and-start"
            ),
            pytest.param(f"alphabet a\nstates 3\nstart {HUGE}\naccepting\n", id="start"),
            pytest.param(f"alphabet a\nstates 3\nstart 0\naccepting {HUGE}\n", id="accepting"),
            pytest.param(
                f"alphabet a\nstates 3\nstart 0\naccepting\n0 a {HUGE}\n", id="transition"
            ),
            pytest.param(
                f"alphabet a\nstates {HUGE}\nstart 0\naccepting\n{HUGE[1:]} a 0\n{HUGE[1:]} a 0\n",
                id="duplicate",
            ),
        ],
    )
    def test_exit_2_with_short_stderr(self, tmp_path, capsys, text):
        path = tmp_path / "huge.dfa"
        path.write_text(text)
        assert main(["min", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "more characters)" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize(
        "text,head",
        [
            # 2 × (10^4300 − 1): one digit more than str() converts
            pytest.param(
                f"alphabet a b\nstates {HUGE}\nstart 0\naccepting\n",
                f"1{'9' * 99}... (4201 more characters) missing: (0, a), (0, b),",
                id="missing-count-past-digit-limit",
            ),
            # 2 × 10^4000 − 3, with no table allocated for the declared states
            pytest.param(
                f"alphabet a b\nstates 1{'0' * 4000}\nstart 0\naccepting 1\n0 a 1\n0 b 0\n1 a 1\n",
                f"1{'9' * 99}... (3901 more characters) missing: (1, b), (2, a),",
                id="huge-declared-states",
            ),
        ],
    )
    def test_missing_count_is_cut(self, tmp_path, capsys, text, head):
        path = tmp_path / "huge.dfa"
        path.write_text(text)
        assert main(["min", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: incomplete transition table; {head}")
        assert len(err.encode()) < 1024

    def test_short_numbers_are_shown_whole(self, tmp_path, capsys):
        path = tmp_path / "start.dfa"
        path.write_text("alphabet a\nstates 3\nstart 7\naccepting\n")
        assert main(["min", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 3: start 7 out of range (states 3)\n"
