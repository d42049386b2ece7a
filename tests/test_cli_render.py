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
import sys

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
    'scatter --m 1,0 --m 0,1 --m 1,1 --m -1,1 --k 1 --k 1 --k 1 --k 1 --order 16 --format json': (
        0, 'feb5b8b1d5c24939e9e212dd0e947730315d780c4486f78179b6606570ee9698'),
    'scatter --m 1,0 --order 5': (2, EMPTY),
    'scatter --m 2,2 --k 1 --order 5': (2, EMPTY),
    'scatter --m 1,0 --k 0 --order 5': (2, EMPTY),
    'scatter --order 5': (2, EMPTY),
    'scatter --m 1,0 --k 1 --order 1': (2, EMPTY),
    'scatter --m 1,0 --m 0,1 --k 3 --k 3 --order 8 --term-cap 10': (3, EMPTY),
    'scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6 --term-cap 0': (3, EMPTY),
    'scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6 --term-cap -1': (2, EMPTY),
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
    # the volume bound of a rational square renders as its rational root
    'staircase --a 9': (
        0, '434ce8d181578ec349274681fe0db6a05707aeb9fa6b3de523acdc8eb56ad8d7'),
    'staircase --a 4 --format json': (
        0, 'c5ced77df9e2ec54860ebad7bdb080c601f96a8b696160f98ca9362680ec6e3d'),
    'staircase --a 9/4 --value volume --format json': (
        0, 'a94af7f81b8c8196659fb696c194cb8dca3b2d918b137b3d7fc504c6e4fcc39b'),
    'staircase --range 1 4 --samples 9': (
        0, 'd785c09134a586d5bba775e22dad77ab7be6ea0f483b1392f88e66158d848174'),
    'staircase --range 1 4 --samples 9 --format json': (
        0, 'd785c09134a586d5bba775e22dad77ab7be6ea0f483b1392f88e66158d848174'),
    'staircase --range 1 4 --samples 9 --format csv': (
        0, 'be28638e49eb8a8fd487be1424dade3679a7619be7c2c94ac11a272d3ec764a9'),
    'staircase --range 1 9 --samples 12 --format svg': (
        0, 'c58ee12a34e2829f82e526104f8ded8fe404627f8847d9fcd9abaed01d908b93'),
    # endpoints with large coprime denominators, across tau^4 and 7
    'staircase --range 13/7 59/8 --samples 333 --format csv': (
        0, 'd294c54b120dbfa9fe323ab94fc3761871ed53bd440d810f90d33dc13091bbba'),
    'staircase --range 13/7 59/8 --samples 333 --format json': (
        0, '17c9630eac2d4685959bc5ed01cd04ff1a347618d312f83200c1f1e294582e81'),
    'staircase': (2, EMPTY),
    'staircase --a 1/2': (2, EMPTY),
    'staircase --a 3/0': (2, EMPTY),
    'staircase --a x': (2, EMPTY),
    'staircase --a 8 --value ball': (2, EMPTY),
    'staircase --range 1/2 3': (2, EMPTY),
    'staircase --a -1/2': (2, EMPTY),  # a leading minus is a value, not a flag
    'staircase --range -1/2 3': (2, EMPTY),
    'staircase --range 1 4 --samples 1': (2, EMPTY),
    'staircase --a 5 --format csv': (2, EMPTY),  # a point value has no csv or svg
    'staircase --a 5 --format svg': (2, EMPTY),
    'staircase --a 5 --range 1 9': (2, EMPTY),  # one mode per call
    'staircase --range 1 4 --samples 3 --value ball': (2, EMPTY),  # --value goes with --a
    'staircase --a 5 --samples 7': (2, EMPTY),  # --samples goes with --range
    # classify
    'classify --p 2 --q 1': (
        0, 'f39e031d37b03eec3fd110c99d7f3c6e880aa12171e7e759a1ad476ee86a6e65'),
    'classify --p 2 --q 13': (
        0, '297baef9ab8be0cc7e09a681b7f589bbac3752bc07d8c9b39964e04299e73380'),
    'classify --p 8 --q 1 --format json': (
        0, 'bf80ff43409924d2842a85da6176cbadff6ca215ae14d7408e12cbdea41f3e01'),
    # the staircase pair of step k = 6, and its near miss
    'classify --p 1597 --q 233': (
        0, '4d09a883565169d9966caa7f928d9f3ec2e855741e36fbbc4b2602dddae25aa8'),
    'classify --p 1597 --q 233 --format json': (
        0, '3b0e36094ba80af1ac36021edacc727a83828911e6134e2e2fea61b9efd77c1e'),
    'classify --p 1597 --q 232': (
        0, 'b50e44c4b2b7fb74d121fed70777c9fe80aad70c1dacb19d0f6b6900c95da804'),
    'classify --p 1597 --q 232 --format json': (
        0, 'b9e32d6381d9e8a138ae54e0081969d56e54dece186a76e8d64b9e033724ce16'),
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
    # colinear models: the matrix maps one direction and a basis completion
    'mutate --model 1,0 --word 1 --compare-original': (
        0, '91a84281f174e76372a810c4542fed58742a2b6baf11853de73370cc7effc07f'),
    'mutate --model 1,0 --word 1 --compare-original --format json': (
        0, '7bedbfa09d7e78bf1071e95330cf7e247b7de055a6af40c5d952fe636515a554'),
    'mutate --model 2,1 --compare-original': (
        0, '7e72a419cc14b4456591f1bf443ace5d6acbc61e17f1b3563625f7d9517b99d4'),
    'mutate --model 2,1 --compare-original --format json': (
        0, 'c73eca371495fcf9c78aa140b953cd8eaa4377d6f46fbb6739fd95b69335b1ad'),
    'mutate --model 1,0;-1,0 --word 1 --compare-original': (
        0, '2c2a5787062bf7fc3efd8ea1956bcd4c54e76f25505ff160066d64371c321034'),
    'mutate --model 1,0;-1,0 --word 1 --compare-original --format json': (
        0, 'ff4939040ad61b066c3578d415d4ad24294eb07d8150bf27e43483e1744fe25a'),
    # an orbit of four vectors, and colinear symmetric models, whose matrix is
    # the first found as the sign of b's direction runs over the set {q, -q}
    'mutate --model 1,2;-1,0;0,-1;2,1 --orbit-depth 3': (
        0, '5dd7dd7c69549066b36d28fb301b296e5a36c2232c179c9343bd6857026090d9'),
    'mutate --model 1,2;-1,0;0,-1;2,1 --orbit-depth 3 --format json': (
        0, '9b37c8e4be9e5d7079c09b528cd1ba550d886552b6ead381929ccc814db27aad'),
    'mutate --model 1,2;-1,0;0,-1;2,1 --orbit-depth 3 --format dot': (
        0, 'a82cea6035cdb088f8d1e8f6f85e52071ac8d4b3d3f39b7a8ec74ae2e27953e0'),
    'mutate --model 2,1;-2,-1;2,1;-2,-1 --word 1,2 --compare-original': (
        0, '3264f37867e69efc69cba80a56ac14eec2b47bcce51d9399d7b9d2cc2e4574e3'),
    'mutate --model 2,1;-2,-1;2,1;-2,-1 --word 1,2 --compare-original --format json': (
        0, '0bbfc90340491b2b64bce72d5616a83ad5155248fc144265b68b3a837fd1c5a5'),
    'mutate --model 0,1;0,-1 --word 2,1 --compare-original': (
        0, '7dd25ff47166bdc2de46bf42c1d31662fca4ff9acc524a851dbceb785a98ff63'),
    'mutate --model 0,1;0,-1 --word 2,1 --compare-original --format json': (
        0, 'bf35eb048c51aa81f5e7abd5f55f5466c030b92f16e837f71e84f72f2d8b6a1e'),
    'mutate --model -1,-3;1,0 --word 5': (2, EMPTY),
    'mutate --model -1,-3;1,0 --word x': (2, EMPTY),
    'mutate --model -1,-3;1,0 --orbit-depth -1': (2, EMPTY),
    'mutate --model 1,2,3': (2, EMPTY),
    'mutate --model -1,-3;1,0 --word 1 --format dot': (2, EMPTY),  # only an orbit has dot
    'mutate --model 1,0 --word 1 --orbit-depth 1': (2, EMPTY),  # one mode per call
    'mutate --model -1,-3;1,0 --orbit-depth 1 --compare-original': (2, EMPTY),  # goes with --word
    # verify
    'verify --order 5': (
        0, 'a42d9c0722e97946867ce9f13669529dec5d24ec135a54ef450e06a040c1943b'),
    'verify --order 5 --format json': (
        0, 'edf20e1166454dd851236a5812b752afed1da53044a407bed9ae1166db6997c2'),
    'verify --order 2': (2, EMPTY),
    'verify --order 6 --term-cap 10': (3, EMPTY),
    'verify --order 6 --term-cap -1': (2, EMPTY),
    # deep completions: the thrice-weighted seeds and the native seeds past order 20
    'verify --order 32 --format json': (
        0, '8c5f52fdfa04e2e5cee51c24e0d7b0b2b680ee6240a2bc6ff1156fc6c589d1a0'),
    'scatter --m -1,-3 --m 1,0 --k 1 --k 1 --order 24 --format json': (
        0, '472da9f3bd48c1eb69eeef1032cd8d73648c3181a1029f116202e6af55964603'),
    # seeds around the origin: neither image of the completion is kept on one line
    'scatter --m 2,1 --m -1,1 --m -1,-2 --k 1 --k 1 --k 1 --order 7 --format json': (
        0, 'e841298d5362aa43f89967a1372e7c54d78c27a8108fdafad53204454f14bd04'),
}


def run(argv_text: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv_text.split(" "))
        except SystemExit as exc:  # argparse's usage error, exit 2
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()


@pytest.mark.parametrize("argv_text", sorted(GOLDEN))
def test_render_golden(argv_text):
    code, digest, err = run(argv_text)
    assert (code, digest) == GOLDEN[argv_text]
    if code not in (0, 1):
        # main prints "error: ...", and argparse its usage and then its error line
        usage = err.startswith("usage: scatstair ") and ": error: " in err.splitlines()[-1]
        assert err.startswith("error: ") or usage


def test_render_golden_without_an_int_digit_limit(monkeypatch):
    """Python 3.10.0 to 3.10.6 have no sys.set_int_max_str_digits; main then
    runs the query as it is, with the same exit code and output."""
    argv_text = "scatter --m 1,0 --m 0,1 --k 1 --k 1 --order 6 --format json"
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run(argv_text)[:2] == GOLDEN[argv_text]


if __name__ == "__main__":
    for argv_text in GOLDEN:
        code, digest, _ = run(argv_text)
        print(f"    {argv_text!r}: ({code}, {digest!r}),")
