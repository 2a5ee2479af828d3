"""Golden digests of `catq eval` on the benchmark's generated programs.

The `wide`, `deep` and `dedup` programs of `bench/gen.py` (seeds 1-3, at
the sizes the benchmark runs) are rendered in every format, and the
sha256 of stdout, with the exit code, must equal the table below.  The
table was computed before the congruence-closure engine was rebuilt
around per-symbol tables and union by size, so it pins byte-identical
output, class ids and labels included, across engine changes and across
every Python version the tests run on.
"""

import hashlib

import pytest

from catq.cli import main

from test_written_models import bench_gen

PROGRAMS = {
    **{f"wide-{seed}": lambda seed=seed: bench_gen.wide(seed, 80).text for seed in (1, 2, 3)},
    **{f"deep-{seed}": lambda seed=seed: bench_gen.deep(seed, 10).text for seed in (1, 2, 3)},
    **{f"dedup-{seed}": lambda seed=seed: bench_gen.dedup(seed, 200, 25).text for seed in (1, 2, 3)},
}

# (program, format) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("wide-1", "markdown"): (0, "ab1b3906a15be6fbf8a34725736569b07cf3cb098a97edccb0f2cbc5cc12c5e0"),
    ("wide-1", "csv"): (0, "ebb37e61907f033f45b090a0df0a8f734517f06907381b3e9c4b443e43ab699f"),
    ("wide-1", "json"): (0, "a13c3a06de3f118a4f6177831c412d9c2576049781bd51f1c3f816bc18274575"),
    ("deep-1", "markdown"): (0, "e6eac69afe94e71eb0f26b11dfe1ebae1654a5319d24362bfbe3fb02d14bca36"),
    ("deep-1", "csv"): (0, "d649caf3d117b24f591638bc37cc9f81faa1e78016aec7ff9e5c088db23af05b"),
    ("deep-1", "json"): (0, "29ec92cc9c0e740d3fc80725ce3a7920f0857a7a80d7ccb39dc5458315b87e2e"),
    ("dedup-1", "markdown"): (0, "06235f5244cd5873f19288799364617979c2c39a61ab97b128f65930c2517290"),
    ("dedup-1", "csv"): (0, "9f15d2dec6584ae25a3a8d98cc10ce0f11f1e16bac6ff178ba216c11f635dc31"),
    ("dedup-1", "json"): (0, "b82c4e8e83f994764f1a732a262ad52d559340f5cb104d5b5ff483d670c6983d"),
    ("wide-2", "markdown"): (0, "10651520485e06fa12424c313ee6f25abb7ef4d58c6331afca55861a67ecf313"),
    ("wide-2", "csv"): (0, "2898dd2970866d8404fb9da568e79df3b506ca15d32287bcf0509da37aa533bf"),
    ("wide-2", "json"): (0, "773bb500f9dedb5915e7ed4b7ee0355df7afc2726efd2f48d5452fbca7275e9f"),
    ("deep-2", "markdown"): (0, "e6eac69afe94e71eb0f26b11dfe1ebae1654a5319d24362bfbe3fb02d14bca36"),
    ("deep-2", "csv"): (0, "d649caf3d117b24f591638bc37cc9f81faa1e78016aec7ff9e5c088db23af05b"),
    ("deep-2", "json"): (0, "29ec92cc9c0e740d3fc80725ce3a7920f0857a7a80d7ccb39dc5458315b87e2e"),
    ("dedup-2", "markdown"): (0, "7084be5c675dfe747be42e71010c8c22837c486bd76b2eb2c47ea88454cf60bd"),
    ("dedup-2", "csv"): (0, "185a229fa23600c2c996bbc5f612e66d0709d8a64c361c02cc286313eee8505e"),
    ("dedup-2", "json"): (0, "5114af114a671acb1f277e55301ed53b1e08fe9abccdc849d008561e25bd65c5"),
    ("wide-3", "markdown"): (0, "ff40119ae19afc5828d716c0e1b8563e951434c5a77dd4cdbd3feb18da2a818f"),
    ("wide-3", "csv"): (0, "66225fdc0feec46fd5325c2f4df5e517bf65de1c5739ca33eed17fa2415ae264"),
    ("wide-3", "json"): (0, "e225473c3d695f548f597fdbb7388729a98410fdd5b74455223f8cb60ed91606"),
    ("deep-3", "markdown"): (0, "e6eac69afe94e71eb0f26b11dfe1ebae1654a5319d24362bfbe3fb02d14bca36"),
    ("deep-3", "csv"): (0, "d649caf3d117b24f591638bc37cc9f81faa1e78016aec7ff9e5c088db23af05b"),
    ("deep-3", "json"): (0, "29ec92cc9c0e740d3fc80725ce3a7920f0857a7a80d7ccb39dc5458315b87e2e"),
    ("dedup-3", "markdown"): (0, "18f7cbabf96ad5f5b38b619c69e664abfdadcbb6aa0d31a39b6b6eaaba17c75a"),
    ("dedup-3", "csv"): (0, "221b872547350bfc56c4981960d5521fbd86bede47a84432e9243f847e760ad7"),
    ("dedup-3", "json"): (0, "d98c9fc1766c7360c61575f493763124bfbd0533b6417017a1653f0f89d75a0d"),
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_eval_output_matches_its_golden_digest(name, tmp_path, capsys):
    path = tmp_path / f"{name}.catq"
    path.write_text(PROGRAMS[name](), encoding="utf-8")
    for fmt in ("markdown", "csv", "json"):
        code = main(["eval", str(path), "--format", fmt])
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[(name, fmt)], fmt


def test_golden_table_covers_every_program_and_format():
    assert set(GOLDEN) == {(n, f) for n in PROGRAMS for f in ("markdown", "csv", "json")}
