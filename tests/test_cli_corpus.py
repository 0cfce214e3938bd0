"""Frozen CLI corpus: the exact JSON stdout of fixed invocations.

Each case runs ``grascat.cli.main`` in process from inside ``tests/corpus``
(so input files are named relative to it and echoed paths stay fixed) and
compares stdout byte for byte with ``tests/corpus/<name>.out``.  The corpus
is the gate for refactors that must keep the output identical; re-record it
with ``PYTHONPATH=src python tests/test_cli_corpus.py`` only when an output
change is intended.  Naming cases, as in ``... test_cli_corpus.py NAME...``,
re-records only those, so a new case leaves every other ``.out`` file as it
is; an unknown name records nothing and exits nonzero.
"""
from pathlib import Path

import pytest

from grascat.cli import main

CORPUS = Path(__file__).parent / "corpus"

CASES = {
    "nc_count_3_6": ["nc", "count", "--k", "3", "--n", "6"],
    "nc_count_4_8": ["nc", "count", "--k", "4", "--n", "8"],
    "nc_count_3_10": ["nc", "count", "--k", "3", "--n", "10", "--max-cliques", "2000000"],
    "nc_list_2_6": ["nc", "list", "--k", "2", "--n", "6"],
    "decompose_tripod_37": ["decompose", "--input", "tripod_37.json"],
    "nc_degree_tripod_37": ["nc", "degree", "--input", "tripod_37.json"],
    "decompose_4_8": ["decompose", "--input", "combo_4_8.json"],
    "nc_degree_4_8": ["nc", "degree", "--input", "combo_4_8.json"],
    "decompose_3_9": ["decompose", "--input", "combo_3_9.json"],
    "nc_degree_3_9": ["nc", "degree", "--input", "combo_3_9.json"],
    "decompose_5_10": ["decompose", "--input", "combo_5_10.json"],
    "nc_degree_5_10": ["nc", "degree", "--input", "combo_5_10.json"],
    "volume_3_6": ["volume", "--k", "3", "--n", "6"],
    "volume_4_7": ["volume", "--k", "4", "--n", "7"],
    "volume_3_8": ["volume", "--k", "3", "--n", "8"],
    "volume_3_9": ["volume", "--k", "3", "--n", "9"],
    "pk_facets_3_6": ["pk", "facets", "--k", "3", "--n", "6"],
    "pk_vertices_3_6": ["pk", "vertices", "--k", "3", "--n", "6"],
    "pk_fvector_3_6": ["pk", "fvector", "--k", "3", "--n", "6"],
    "pk_facets_3_7": ["pk", "facets", "--k", "3", "--n", "7"],
    "pk_vertices_3_7": ["pk", "vertices", "--k", "3", "--n", "7"],
    "newton_3_6": ["newton", "--k", "3", "--n", "6", "--fvector"],
    "newton_3_7": ["newton", "--k", "3", "--n", "7", "--fvector"],
    "pk_fvector_3_8": ["pk", "fvector", "--k", "3", "--n", "8"],
    "pk_facets_4_8": ["pk", "facets", "--k", "4", "--n", "8"],
    "newton_4_7": ["newton", "--k", "4", "--n", "7", "--fvector"],
    "newton_3_8": ["newton", "--k", "3", "--n", "8", "--fvector"],
    "pk_fvector_4_8": ["pk", "fvector", "--k", "4", "--n", "8"],
    "ucheck_random_3_7": ["u-check", "--k", "3", "--n", "7", "--mode", "random",
                          "--trials", "2", "--seed", "7"],
    "ucheck_single_4_8": ["u-check", "--k", "4", "--n", "8", "--J", "2,3,6,8"],
    "ucheck_symbolic_3_7": ["u-check", "--k", "3", "--n", "7"],
    "ucheck_random_4_9": ["u-check", "--k", "4", "--n", "9", "--mode", "random",
                          "--trials", "1", "--seed", "2"],
    "ucheck_random_single_3_6": ["u-check", "--k", "3", "--n", "6", "--J", "1,2,4",
                                 "--mode", "random", "--trials", "4", "--seed", "3"],
    "ucheck_symbolic_4_8": ["u-check", "--k", "4", "--n", "8"],
    "ucheck_symbolic_4_9": ["u-check", "--k", "4", "--n", "9"],
    "ucheck_random_3_9": ["u-check", "--k", "3", "--n", "9", "--mode", "random",
                          "--trials", "1", "--seed", "4"],
    "ucheck_symbolic_2_7": ["u-check", "--k", "2", "--n", "7"],
    "ucheck_random_5_10": ["u-check", "--k", "5", "--n", "10", "--mode", "random",
                           "--trials", "1", "--seed", "1"],
    "ucheck_random_3_12": ["u-check", "--k", "3", "--n", "12", "--mode", "random",
                           "--trials", "2", "--seed", "3"],
    "ucheck_symbolic_3_10": ["u-check", "--k", "3", "--n", "10"],
    "amplitude_pk_3_6": ["amplitude", "--k", "3", "--n", "6", "--pk"],
    "amplitude_pk_4_9": ["amplitude", "--k", "4", "--n", "9", "--pk",
                         "--max-cliques", "2000000"],
    "amplitude_prime_shift_3_6": ["amplitude", "--k", "3", "--n", "6",
                                  "--eta", "prime_eta_36.json", "--shift"],
    "amplitude_random_2_6": ["amplitude", "--k", "2", "--n", "6",
                             "--eta", "random-interior", "--seed", "3"],
    "amplitude_eta_3_7": ["amplitude", "--k", "3", "--n", "7", "--eta", "eta_3_7.json"],
    "amplitude_eta_shift_3_8": ["amplitude", "--k", "3", "--n", "8",
                                "--eta", "eta_3_8.json", "--shift"],
    "amplitude_eta_4_8": ["amplitude", "--k", "4", "--n", "8", "--eta", "eta_4_8.json"],
    "amplitude_eta_mixed_3_9": ["amplitude", "--k", "3", "--n", "9",
                                "--eta", "eta_mixed_3_9.json"],
    "amplitude_eta_mixed_4_9": ["amplitude", "--k", "4", "--n", "9",
                                "--eta", "eta_mixed_4_9.json", "--max-cliques", "2000000"],
    "kinematics_basis_3_6": ["kinematics", "basis", "--k", "3", "--n", "6"],
    "kinematics_eta_to_s_3_6": ["kinematics", "eta-to-s", "--k", "3", "--n", "6",
                                "--input", "prime_eta_36.json"],
    "kinematics_eta_to_s_3_8": ["kinematics", "eta-to-s", "--k", "3", "--n", "8",
                                "--input", "eta_3_8.json"],
    "kinematics_eta_to_s_4_8": ["kinematics", "eta-to-s", "--k", "4", "--n", "8",
                                "--input", "eta_4_8.json"],
    "kinematics_s_to_eta_3_6": ["kinematics", "s-to-eta", "--k", "3", "--n", "6",
                                "--input", "s_3_6.json"],
    "amplitude_eta_shift_3_7": ["amplitude", "--k", "3", "--n", "7",
                                "--eta", "eta_3_7.json", "--shift"],
    "amplitude_random_3_7": ["amplitude", "--k", "3", "--n", "7",
                             "--eta", "random-interior", "--seed", "5"],
    "search_7": ["search", "--n", "7", "--trials", "1", "--seed", "0"],
    "search_8": ["search", "--n", "8", "--trials", "1", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_corpus(name, capsys, monkeypatch):
    monkeypatch.chdir(CORPUS)
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (CORPUS / f"{name}.out").read_text()


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import sys

    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown corpus case(s): {', '.join(unknown)}")
    os.chdir(CORPUS)
    for name in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(CASES[name]) == 0, name
        (CORPUS / f"{name}.out").write_text(buf.getvalue())
