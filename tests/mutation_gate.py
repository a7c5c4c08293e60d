"""Mutation gate: the checkers are checked by hand mutants of ``src/``.

Each entry of MUTANTS names a file, a text that occurs in it exactly
once, the text that replaces it, and the tests that must fail once the
mutant is in place.  The gate copies the repository to a temporary
directory, runs the named tests of every entry there unmutated (they must
pass), then applies each mutant in turn and runs only its tests.  A mutant
that survives its tests fails the gate, unless the entry is marked
equivalent with the argument why no test can kill it; such a mutant must
survive its tests, so that the argument is checked as well.

    python tests/mutation_gate.py

It needs only the standard library and pytest, and runs outside the tier-1
suite: each entry costs a pytest process.  A pytest run that outlasts
TIMEOUT_S counts as failed, so a mutant that makes its tests hang is
killed.  Exit status 0 when every mutant is killed (or survives as its
entry says), 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # per pytest run; the whole gate takes about 30 s


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    equivalent: str = ""  # why no test can kill it, for an equivalent mutant


MUTANTS = (
    Mutant(
        "scan core cut without its wrap exemption",
        "src/npicheck/complexes.py",
        "if not last and (joins < join_cap and room > 1 or not wrap <= pos < core_end):",
        "if not last and joins < join_cap and room > 1:",
        (
            "tests/test_complexes.py::test_face_moves_match_trace_everywhere_oracle",
            "tests/test_complexes.py::test_npi_scan_matches_graph_first_oracle",
            "tests/test_complexes.py::test_npi_scan_is_the_fully_faced_part_of_the_decorated_scan",
            "tests/test_cli.py::test_closed_stdout_exits_1",
        ),
    ),
    Mutant(
        "extremal flags not reset before the last improvement",
        "src/npicheck/minima.py",
        "    at[:last] = [False] * last\n",
        "",
        ("tests/test_minima.py::test_extremal_multiset_matches_the_two_pass_oracle",),
    ),
    Mutant(
        "peeling witness taken without checking that no other relator holds it",
        "src/npicheck/minima.py",
        "peeled.append((i, next(g for g in usable[i] if len(holders[g]) == 1)))",
        "peeled.append((i, usable[i][0]))",
        (
            "tests/test_minima.py::test_certificate_read_off_the_peeling_matches_the_forward_search",
            "tests/test_minima.py::test_peeling_matches_subset_dp",
        ),
    ),
    Mutant(
        "stuck-core replay keeps counting the relators it removed",
        "src/npicheck/minima.py",
        "                held[g] -= 1\n",
        "",
        (
            "tests/test_minima.py::test_stuck_core_replay_matches_the_union_rebuilding_oracle",
            "tests/test_minima.py::test_stuck_core_replay_on_a_long_reversed_chain",
        ),
    ),
    Mutant(
        "stuck-core replay finds no member of the core free to go last",
        "src/npicheck/minima.py",
        "free = [g for g in usable[rel] if held[g] == 1]",
        "free = [g for g in usable[rel] if held[g] == 0]",
        (
            "tests/test_minima.py::test_stuck_core_replay_matches_the_union_rebuilding_oracle",
            "tests/test_minima.py::test_stuck_core_replay_rejects_bad_cores",
        ),
    ),
    Mutant(
        "stuck-core replay never revisits a relator whose holder count fell",
        "src/npicheck/minima.py",
        "                    work += holders[g]\n",
        "                    pass\n",
        (
            "tests/test_minima.py::test_stuck_core_replay_matches_the_union_rebuilding_oracle",
            "tests/test_minima.py::test_stuck_core_replay_on_a_long_reversed_chain",
        ),
    ),
    Mutant(
        "free generator given weight 0",
        "src/npicheck/homology.py",
        "            weights.insert(j, 1)\n",
        "            weights.insert(j, 0)\n",
        (
            "tests/test_wedge.py::test_all_ones_certifies_a_forest_with_an_isolated_vertex_as_its_log_does",
        ),
    ),
    Mutant(
        "zero projection kept as the last map",
        "src/npicheck/homology.py",
        "    return _with_free_weights(maps, h1.free) if h1.free else maps\n",
        "    if h1.free:\n"
        "        maps = (*maps, WeightHom((0,) * len(h1.kernel[0])))\n"
        "    return _with_free_weights(maps, h1.free) if h1.free else maps\n",
        ("tests/test_wedge.py::test_a_report_is_invariant_under_a_wedge_with_circles",),
    ),
    Mutant(
        "peel accepts a non-unit pivot",
        "src/npicheck/homology.py",
        "        if abs(row[c]) != 1:\n            continue\n",
        "",
        ("tests/test_homology.py::test_peeled_h1_matches_the_dense_oracle",),
    ),
    Mutant(
        "peel ignores the other live users of its pivot column",
        "src/npicheck/homology.py",
        "        if len(users[c]) != 1:\n",
        "        if not users[c]:\n",
        ("tests/test_homology.py::test_peeled_h1_matches_the_dense_oracle",),
    ),
    Mutant(
        "braid sign shortcut without its range check",
        "src/npicheck/orders.py",
        "    w = _reduced_in_range(word, n_strands)\n    if not w:\n        return TRIVIAL\n",
        "    w = freely_reduce(word)\n    if not w:\n        return TRIVIAL\n",
        ("tests/test_orders.py::test_braid_sign_matches_the_handle_reduction_oracle",),
    ),
    Mutant(
        "relator token column taken from the token before",
        "src/npicheck/textio.py",
        "    for i, tok in enumerate(tokens[1:], start=1):\n        base = generators.get(tok)",
        "    for i, tok in enumerate(tokens[1:], start=0):\n        base = generators.get(tok)",
        (
            "tests/test_cli.py::test_exponent_expansion_bounded",
            "tests/test_cli.py::test_parser_matches_the_token_and_column_oracle",
        ),
    ),
    Mutant(
        "columns after a line's first token one character right",
        "src/npicheck/textio.py",
        'return [m.start() for m in re.finditer(r"\\S+", body)][index] + 1',
        'return [m.start() for m in re.finditer(r"\\S+", body)][index] + 1 + (index > 0)',
        (
            "tests/test_cli.py::test_exponent_expansion_bounded",
            "tests/test_cli.py::test_parser_matches_the_token_and_column_oracle",
            "tests/test_cli.py::test_parse_log",
        ),
    ),
    Mutant(
        "proper power tested on the literal word",
        "src/npicheck/words.py",
        "    c = _wrap_length(word)\n    word = word[c : len(word) - c]\n",
        "",
        ("tests/test_words.py::test_is_proper_power",),
    ),
    Mutant(
        "letter graphs T and I swapped in the Adian route",
        "src/npicheck/logs.py",
        "    t_forest = is_forest(graph_T(form))\n    i_forest = is_forest(graph_I(form))\n",
        "    t_forest = is_forest(graph_I(form))\n    i_forest = is_forest(graph_T(form))\n",
        (
            "tests/test_report.py::test_log_flags_are_decided_once_from_the_adian_form",
            "tests/test_cli.py::test_cli_views_print",
        ),
    ),
    Mutant(
        "forest test accepts an edge that closes a cycle",
        "src/npicheck/logs.py",
        "        if ra == rb:  # a loop, or an edge within one tree\n",
        "        if ra == rb and a == b:  # a loop, or an edge within one tree\n",
        (
            "tests/test_logs.py::test_is_forest",
            "tests/test_report.py::test_log_flags_are_decided_once_from_the_adian_form",
        ),
    ),
    Mutant(
        "adian section shows flags after a failed hypothesis",
        "src/npicheck/report.py",
        '    shown = verdict.status != "hypothesis-failure"\n',
        "    shown = True\n",
        (
            "tests/test_report.py::test_log_flags_are_decided_once_from_the_adian_form",
            "tests/test_cli.py::test_cli_views_print",
        ),
    ),
    Mutant(
        "scan layer run when the package is imported",
        "src/npicheck/__init__.py",
        'complexes = _register_lazily(f"{__name__}.complexes")\n',
        'complexes = _register_lazily(f"{__name__}.complexes")\nfrom .complexes import npi_scan\n',
        (
            "tests/test_cli.py::test_only_a_scan_runs_the_scan_layer",
            "tests/test_api.py::test_package_exports_the_report_api",
        ),
    ),
    Mutant(
        "cover layer run when the package is imported",
        "src/npicheck/__init__.py",
        'cover = _register_lazily(f"{__name__}.cover")\n',
        'cover = _register_lazily(f"{__name__}.cover")\nfrom .cover import build_cover_window\n',
        (
            "tests/test_cli.py::test_only_a_scan_runs_the_scan_layer",
            "tests/test_api.py::test_package_exports_the_report_api",
        ),
    ),
    Mutant(
        "logs layer run when the package is imported",
        "src/npicheck/__init__.py",
        'logs = _register_lazily(f"{__name__}.logs")\n',
        'logs = _register_lazily(f"{__name__}.logs")\nfrom .logs import adian_check\n',
        (
            "tests/test_cli.py::test_only_a_scan_runs_the_scan_layer",
            "tests/test_api.py::test_package_exports_the_report_api",
        ),
    ),
    Mutant(
        "cover check (d) forced to pass",
        "src/npicheck/cover.py",
        'record("deck-translation-equivariance", failures, "shift by +1 commutes")',
        'record("deck-translation-equivariance", [], "shift by +1 commutes")',
        ("tests/test_cover.py::test_deck_translation_check_fails_on_a_lift_off_by_one_level",),
    ),
    Mutant(
        "all-ones coordinates not swapped with their columns",
        "src/npicheck/homology.py",
        "                s[t], s[j0] = s[j0], s[t]\n",
        "",
        (
            "tests/test_homology.py::test_smith_form_matches_the_full_search_oracle",
            "tests/test_homology.py::test_all_ones_coordinates_match_the_gram_oracle",
        ),
    ),
    Mutant(
        "all-ones coordinates updated with the column operation's sign",
        "src/npicheck/homology.py",
        "                        s[t] += q * s[j]\n",
        "                        s[t] -= q * s[j]\n",
        (
            "tests/test_homology.py::test_smith_form_matches_the_full_search_oracle",
            "tests/test_homology.py::test_all_ones_coordinates_match_the_gram_oracle",
        ),
    ),
)


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(cmd, 1, f"timeout after {TIMEOUT_S} s", "")


def _last_line(proc: subprocess.CompletedProcess) -> str:
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else proc.stderr.strip()[-200:]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work", ".benchmarks"
            ),
        )
        tests = sorted({t for m in MUTANTS for t in m.tests})
        clean = _pytest(copy, tests)
        if clean.returncode != 0:
            print(f"the named tests fail without a mutant: {_last_line(clean)}")
            print(clean.stdout[-4000:])
            return 1
        print(f"unmutated: {_last_line(clean)}")
        failed = []
        for m in MUTANTS:
            path = copy / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                print(f"STALE     {m.name}: the old text occurs {original.count(m.old)} times")
                failed.append(m.name)
                continue
            path.write_text(original.replace(m.old, m.new))
            try:
                proc = _pytest(copy, m.tests)
            finally:
                path.write_text(original)
            killed = proc.returncode != 0
            if killed == (not m.equivalent):
                verdict = f"killed: {_last_line(proc)}" if killed else "survives (equivalent)"
                print(f"ok        {m.name}: {verdict}")
            else:
                print(f"FAIL      {m.name}: {'killed' if killed else 'survived'}: {_last_line(proc)}")
                failed.append(m.name)
    if failed:
        print(f"{len(failed)} of {len(MUTANTS)} entries failed: {failed}")
        return 1
    print(f"all {len(MUTANTS)} entries hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
