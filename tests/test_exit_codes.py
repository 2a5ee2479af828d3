"""Every program text the tests hold, run through `catq check` and `catq eval`, ends in an exit code."""

import pytest

from catq import cli

from test_cli import CHAIN, COLLIDING, CYCLIC, IDEMPOTENT, SHADOWING, write
from test_dsl import SPANNED
from test_migrate import FRESH_NULL
from test_written_models import DIAGNOSED, PROGRAMS, RESOLUTION_ERRORS, SCHEMAS

TEXTS = {
    "SPANNED": SPANNED,
    "FRESH_NULL": FRESH_NULL,
    "COLLIDING": COLLIDING,
    "CYCLIC": CYCLIC,
    "IDEMPOTENT": IDEMPOTENT,
    "CHAIN": CHAIN,
    "SHADOWING": SHADOWING,
    "SCHEMAS": SCHEMAS,
    **PROGRAMS,
    **{f"DIAGNOSED-{case}": DIAGNOSED % bad for case, (bad, *_) in RESOLUTION_ERRORS.items()},
}


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize("name", TEXTS)
def test_every_failure_maps_to_an_exit_code(tmp_path, capsys, name, command):
    # 0 clean, 1 diagnostics, 2 a resource limit, 3 inconsistent: never a traceback
    code = cli.main([command, write(tmp_path, TEXTS[name])])
    assert type(code) is int and 0 <= code <= 3
