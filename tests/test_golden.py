"""Golden CLI outputs: stdout and exit code of fixed jobs, byte for byte.

Each ``tests/golden/<name>.out`` holds the exact stdout of one command;
``tests/golden/S1_join_S1.cplx`` is the input of one of them, the join of
two triangle circles as ``io.format_complex`` writes it.
A refactor that keeps behaviour keeps every file; a change that means to
alter output rewrites the affected files and says why.
"""

from pathlib import Path

import pytest

from helpers import run_cli

GOLDEN = Path(__file__).parent / "golden"

JOBS = [
    ("report_T2_7", ["--seed", "3", "report", "--name", "T2_7"], 0),
    (
        "report_RP2_6_one_vs_rest",
        ["--seed", "7", "report", "--name", "RP2_6", "--partition", "one-vs-rest"],
        2,
    ),
    ("report_S2_oct", ["report", "--name", "S2_oct"], 0),
    ("nerve_T2_7", ["nerve", "--name", "T2_7", "--partition", "discrete"], 0),
    ("strata_genus2_10", ["strata", "--name", "genus2_10", "--partition", "discrete"], 0),
    (
        "verify_spine_D2_triangle",
        ["verify-spine", "--name", "D2_triangle", "--partition", "single"],
        2,
    ),
    # every span component collapses: the face counts are the spans' own
    (
        "verify_spine_S3_pentachoron_one_vs_rest",
        ["verify-spine", "--name", "S3_pentachoron", "--partition", "one-vs-rest"],
        0,
    ),
    (
        "drill_S2_tetra",
        ["--seed", "5", "drill", "--name", "S2_tetra", "--partition", "a,b|c,d", "--points", "2"],
        0,
    ),
    ("search_S2_oct", ["--budget", "300", "--seed", "3", "search", "--name", "S2_oct"], 0),
    ("search_T2_7", ["search", "--name", "T2_7"], 0),
    ("search_RP2_6", ["search", "--name", "RP2_6"], 0),
    ("search_genus2_10", ["search", "--name", "genus2_10"], 0),
    ("normal_discs_3", ["normal-discs", "--n", "3"], 0),
    ("normal_discs_4", ["normal-discs", "--n", "4"], 0),
    ("homology_T2_7", ["homology", "--name", "T2_7"], 0),
    ("homology_RP2_6", ["homology", "--name", "RP2_6"], 0),
    (
        "drill_S3_pentachoron",
        ["drill", "--name", "S3_pentachoron", "--partition", "discrete", "--points", "2"],
        0,
    ),
    ("report_S3_pentachoron", ["report", "--name", "S3_pentachoron"], 0),
    ("drill_S2_oct", ["drill", "--name", "S2_oct", "--partition", "discrete", "--points", "5"], 0),
    ("drill_T2_7", ["drill", "--name", "T2_7", "--partition", "discrete", "--points", "5"], 0),
    ("nerve_S2_oct", ["nerve", "--name", "S2_oct", "--partition", "discrete"], 0),
    # vertices "a a* b b* c c*", where "*" sorts below ",": Stein numbers
    # its fiber components by least f-injective face, whatever order their
    # labels take
    (
        "nerve_S1_join_S1",
        ["nerve", "--in", str(GOLDEN / "S1_join_S1.cplx"), "--partition", "discrete"],
        0,
    ),
    # the job that sets the benchmark's peak memory: Stein at full size
    (
        "report_S1_join_S1",
        ["report", "--in", str(GOLDEN / "S1_join_S1.cplx"), "--partition", "discrete"],
        0,
    ),
    (
        "nerve_S3_pentachoron_one_vs_rest",
        ["nerve", "--name", "S3_pentachoron", "--partition", "one-vs-rest"],
        0,
    ),
]


@pytest.mark.parametrize("name,args,code", JOBS, ids=[j[0] for j in JOBS])
def test_golden_output(name, args, code):
    exit_code, stdout, _ = run_cli(args)
    assert exit_code == code
    assert stdout == (GOLDEN / f"{name}.out").read_text()
