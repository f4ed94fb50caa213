"""The benchmark harness's contract with the program.

`perfbench/workloads.py` builds every input of a workload with the
program's own generator, table type and codec (`generate_quasigroup`,
`FiniteMagma.table`, the tuple `FiniteMagma` constructor, `format_magma`,
`ToyodaParams.to_json_dict`, `CATALOG`), and `perfbench/checks.py` checks
each report against answers computed apart from the program.  Here each
workload's plan at seed 1 is made and written out, and every command of
one pass runs once through `cli.main`: a malformed command must exit 2
with empty stdout, and every other report must pass its check.  `run.py`
is not imported, because it sets BLAS thread variables at import.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import check_command  # noqa: E402
from workloads import WORKLOADS, make_plan, materialise  # noqa: E402

from ccmagma import cli  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_command_of_a_pass_meets_its_check(workload, tmp_path, capsys):
    cmds, ctx = materialise(make_plan(workload, 1), tmp_path)
    assert cmds
    for cmd in cmds:
        code = cli.main(list(cmd.argv))
        out = capsys.readouterr().out
        if cmd.malformed:
            assert (code, out) == (2, ""), cmd.argv
        else:
            check_command(cmd, code, out, ctx)
