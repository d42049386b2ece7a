"""Golden digests of the CLI's output for every subcommand and format.

Each case runs ``scatstair.cli.main(argv)`` in-process and compares the exit
code and the sha256 of stdout with values recorded before the CLI's rendering
was unified.  The JSON and CSV outputs of the benchmark tasks are also pinned
by ``bench/golden.json``; these cases add the text, SVG and DOT formats, the
``--value`` variants and every documented error exit.

A digest changes only with a deliberate change of output: record the new one
with ``PYTHONPATH=src python tests/test_cli_render.py`` and say why in the change
log.
"""

import contextlib
import hashlib
import io

import pytest

from scatstair import cli

# sha256 of an empty stdout, which every error exit leaves
EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = {
    # scatter: every format, a weighted pair, native seeds, three seeds
    'scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6': (
        0, '625a066badea4944ed751f50af22cedcf23e0a64b0f52a07e1e9ab635119fef9'),
    'scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6 --format json': (
        0, '30caec0aaf3b0a3d236995b8f564043a622c1ab33be61884fa3974954a9e6840'),
    'scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6 --format svg': (
        0, 'c6453e05c63e920665cc6e644c406ca3fa4febf83d3dd43e513727bce274edc3'),
    'scatter --m 1,0 --m 0,1 --k 2 --k 2 --order 5': (
        0, 'cd450d417bf3d06b10b18d5fa3b3696a6fe08882b06cbe6e0a8a641324209d8a'),
    'scatter --m -1,-3 --m 1,0 --k 1 --k 1 --order 5 --format json': (
        0, '91b13ee4862a52deb28e177be862c3570c6b15262adea1ae0358ca57f0a8f9f9'),
    'scatter --m 1,0 --m 0,1 --m 1,1 --k 1 --k 1 --k 1 --order 5 --format svg': (
        0, '85ef0a1b0f7193e510468d9d6afda5e687c8a96700e394864ae1175dbb106488'),
    'scatter --m 1,0 --order 5': (2, EMPTY),
    'scatter --m 2,2 --k 1 --order 5': (2, EMPTY),
    'scatter --m 1,0 --k 0 --order 5': (2, EMPTY),
    'scatter --order 5': (2, EMPTY),
    'scatter --m 1,0 --k 1 --order 1': (2, EMPTY),
    'scatter --m 1,0 --m 0,1 --k 3 --k 3 --order 8 --term-cap 10': (3, EMPTY),
    # staircase: point values, every --value, every range format
    'staircase --a 2': (
        0, '51c4e1aaaefc37d490c4cb5d86b32f74f906444771883c27eff95061376cc624'),
    'staircase --a 13/2 --format json': (
        0, 'a05b8eaaaa239f1567e3e5b14e678c4e4da87f5fa314bfa01d9666584325679f'),
    'staircase --a 8': (
        0, '72f3d63de615e1f6c1eebaa3e9fd74527377568e0d395af8c926ce62c6e77ecc'),
    'staircase --a 9 --value ball': (
        0, '3d1cb7d642252b6d8b221ce50312250ec8d478d1bd9cada7e846f344214bc236'),
    'staircase --a 8 --value stabilized --format json': (
        0, '4a6ce200dd457c68ecfc3cdbd318ec5ca6b883b1aba88b48f8b074cd43004972'),
    'staircase --a 7/3 --value folding': (
        0, '4f43a9aa70093a9ce1c1e6da3c5f3d70428e0142a963e9babacb208258f0093a'),
    'staircase --a 5 --value volume --format json': (
        0, '631c1397a184b5dbf8b480bd3242e194b032f7226ec57c6db0f82680a850f20f'),
    'staircase --range 1 4 --samples 9': (
        0, 'd785c09134a586d5bba775e22dad77ab7be6ea0f483b1392f88e66158d848174'),
    'staircase --range 1 4 --samples 9 --format json': (
        0, 'd785c09134a586d5bba775e22dad77ab7be6ea0f483b1392f88e66158d848174'),
    'staircase --range 1 4 --samples 9 --format csv': (
        0, 'be28638e49eb8a8fd487be1424dade3679a7619be7c2c94ac11a272d3ec764a9'),
    'staircase --range 1 9 --samples 12 --format svg': (
        0, 'c58ee12a34e2829f82e526104f8ded8fe404627f8847d9fcd9abaed01d908b93'),
    'staircase': (2, EMPTY),
    'staircase --a 1/2': (2, EMPTY),
    'staircase --a 3/0': (2, EMPTY),
    'staircase --a x': (2, EMPTY),
    'staircase --a 8 --value ball': (2, EMPTY),
    'staircase --range 1/2 3': (2, EMPTY),
    'staircase --range 1 4 --samples 1': (2, EMPTY),
    'staircase --a 5 --format csv': (2, EMPTY),  # a point value has no csv or svg
    'staircase --a 5 --format svg': (2, EMPTY),
    # classify
    'classify --p 2 --q 1': (
        0, 'f39e031d37b03eec3fd110c99d7f3c6e880aa12171e7e759a1ad476ee86a6e65'),
    'classify --p 2 --q 13': (
        0, '297baef9ab8be0cc7e09a681b7f589bbac3752bc07d8c9b39964e04299e73380'),
    'classify --p 8 --q 1 --format json': (
        0, 'bf80ff43409924d2842a85da6176cbadff6ca215ae14d7408e12cbdea41f3e01'),
    'classify --p 4 --q 2': (2, EMPTY),
    'classify --p 0 --q 1': (2, EMPTY),
    # mutate: words, both --compare-original verdicts, orbits in every format
    'mutate --model -1,-3;1,0 --word 1': (
        0, 'a5c6f163cdc01feaf947c10890e6554d4b871bc6e71576c53f976d831457ddbd'),
    'mutate --model -1,-3;1,0 --word 1 --format json': (
        0, '205feba32e9d2ebc6375ab5f88487c178658f3ee14114f27012302f4449ee503'),
    'mutate --model -1,-3;1,0 --word 1,2 --compare-original': (
        0, '375e876029fae07459341c77761d5c80b4744ab059bc6f079a2b203731e7d1d6'),
    'mutate --model -1,-3;1,0 --word 1,2 --compare-original --format json': (
        0, '2b88648e429d088eeb769d949d105b70d2fa8c922ea0e0b560c234748f538dff'),
    'mutate --model -1,-3;1,0 --word 1 --compare-original': (
        0, '286bfcabf777214925dee2b685b53ac9dcf249dc36525fd533f92641230ecc6a'),
    'mutate --model -1,-3;1,0 --word 1 --compare-original --format json': (
        0, '6a323c6807f13e18a9775152088865aedbf9057e8656f923947922bb432f1388'),
    'mutate --model -1,-3;1,0 --orbit-depth 2': (
        0, '0f4af12421a44c4bc5e7dad50338c54edbce412c10deed62b4a114663c1c6289'),
    'mutate --model -1,-3;1,0 --orbit-depth 2 --format json': (
        0, 'b34d9eb40b7c96adea4e73659db29155f9024715e448dd6d98aa801a27ae103b'),
    'mutate --model -1,-3;1,0 --orbit-depth 2 --format dot': (
        0, '222c4998c02646bbc240dce4ccdd0c0197636122e0efb3a608270bfe22cc119a'),
    'mutate --model -1,-3;1,0 --word 5': (2, EMPTY),
    'mutate --model -1,-3;1,0 --word x': (2, EMPTY),
    'mutate --model -1,-3;1,0 --orbit-depth -1': (2, EMPTY),
    'mutate --model 1,2,3': (2, EMPTY),
    'mutate --model -1,-3;1,0 --word 1 --format dot': (2, EMPTY),  # only an orbit has dot
    # verify
    'verify --order 5': (
        0, 'a42d9c0722e97946867ce9f13669529dec5d24ec135a54ef450e06a040c1943b'),
    'verify --order 5 --format json': (
        0, 'edf20e1166454dd851236a5812b752afed1da53044a407bed9ae1166db6997c2'),
    'verify --order 2': (2, EMPTY),
    'verify --order 6 --term-cap 10': (3, EMPTY),
}


def run(argv_text: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv_text.split(" "))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()


@pytest.mark.parametrize("argv_text", sorted(GOLDEN))
def test_render_golden(argv_text):
    code, digest, err = run(argv_text)
    assert (code, digest) == GOLDEN[argv_text]
    if code not in (0, 1):
        assert err.startswith("error: ")


if __name__ == "__main__":
    for argv_text in GOLDEN:
        code, digest, _ = run(argv_text)
        print(f"    {argv_text!r}: ({code}, {digest!r}),")
