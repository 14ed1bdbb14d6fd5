"""CLI output is pinned byte for byte.

Each case runs one command on one geometry in-process and compares the
SHA-256 of its exit code, standard output and standard error with a pinned
digest.  The digests were computed before the integer-numerator class kernel
and the one-pass exp/log replaced the dense ``Fraction`` kernel and the
power sums, so a change to the exact arithmetic that alters any report,
error payload or exit code fails here.  One digest was recomputed since:
``mirror-map:p1-o1``, whose report gained the string dial -q that the map
applies (P1 with O(1) has Fano index 1).
"""

import hashlib
import os

import pytest

from gwtwist.cli import main

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEOMETRIES = {
    "quintic": os.path.join(_ROOT, "geometries", "quintic.json"),
    "p4-o1": os.path.join(_ROOT, "geometries", "p4-o1.json"),
    "p5-o-1-o-5": os.path.join(_ROOT, "geometries", "p5-o-1-o-5.json"),
    "local-p1": os.path.join(_ROOT, "geometries", "local-p1.json"),
    "p3-o1-o1": os.path.join(_ROOT, "geometries", "p3-o1-o1.json"),
    # read only: the benchmark's own geometry files
    "p1-o1": os.path.join(_ROOT, "perfbench", "geometries", "p1-o1.json"),
    "bicubic": os.path.join(_ROOT, "perfbench", "geometries", "bicubic.json"),
}


def _degree(cmd: str, geometry: str) -> int:
    if cmd == "serre":
        return 4
    if cmd in ("oracle", "verify"):
        return 2
    return 4 if geometry == "bicubic" else 8


def cli_digest(capsys, cmd: str, geometry: str) -> str:
    argv = [
        "--geometry", GEOMETRIES[geometry],
        "--cmd", cmd,
        "--max-degree", str(_degree(cmd, geometry)),
        "--seed", "3",
    ]
    rc = main(argv)
    captured = capsys.readouterr()
    blob = f"{rc}\0{captured.out}\0{captured.err}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


DIGESTS = {
    "check:bicubic": "6b1a7d7cb3eb5e17190e622094d39a94e599500e6eb0c84a9cbcc6d7068200c3",
    "check:local-p1": "d7a9736ef15df263dfe53162675698ccc9be8c89b2998749e780d4e6dd8fcad7",
    "check:p1-o1": "2e08249de2ba56c47478f168b839bbe77df5db1afee811143f2de4c7d4035935",
    "check:p3-o1-o1": "e3de635adcb10429fd88d464d09200199b15b36e308b10b655fbb365f023c8d1",
    "check:p4-o1": "e3de635adcb10429fd88d464d09200199b15b36e308b10b655fbb365f023c8d1",
    "check:p5-o-1-o-5": "d7a9736ef15df263dfe53162675698ccc9be8c89b2998749e780d4e6dd8fcad7",
    "check:quintic": "2e08249de2ba56c47478f168b839bbe77df5db1afee811143f2de4c7d4035935",
    "ifun:bicubic": "25200c46cd6432946b806b5a20f72a7b1d93f5a266e7fe78c9316df5aedba263",
    "ifun:local-p1": "f9bbecf6bd7d5d2e20883baa07c4185996ca3f127510c6284cd3edbeed4aa5d3",
    "ifun:p1-o1": "64c7607fb2b8679bfb20a5786828aab54b54ca01cea4921d03a6db000b793a12",
    "ifun:p3-o1-o1": "4df5dc9fe0ea80a4301d62f3bdf944733c0ba09924a6eddb3c08d409baf57803",
    "ifun:p4-o1": "3f0d6ee09543c647051b0405da18c989597ea224d3bd77fe605ef79fd1c2c9e6",
    "ifun:p5-o-1-o-5": "66802d85f7d50412d0d176c6f6410dfc29e2cb35908cb3791642e4328b41ea5b",
    "ifun:quintic": "52ebf750dce5f952a5ce297d8a86bd44255db3da2ff9f6f8fcca405563c6f476",
    "invariants:bicubic": "9df837285ea2dbd0fa664539d94a025d686d7c36e77a009b82bd1f3d8a4c1ac3",
    "invariants:local-p1": "b3c2ac5fdf6600ad93c79aa5679dae942a4789494cbf7fd29a54fe2193023dd2",
    "invariants:p1-o1": "5177c216c2ced807ced324c615cb64ec9868232a64e58a6de0ddc12cc010355b",
    "invariants:p3-o1-o1": "fd4f7d1b0c46abd718907d5f83cfe46ac8618a6b4e89fb2f3eca9f417654b468",
    "invariants:p4-o1": "5177c216c2ced807ced324c615cb64ec9868232a64e58a6de0ddc12cc010355b",
    "invariants:p5-o-1-o-5": "5177c216c2ced807ced324c615cb64ec9868232a64e58a6de0ddc12cc010355b",
    "invariants:quintic": "008fc16bd8aadbc9e4b8d649ecd4f1da074a86ef7fa346175c38472c898f9bf9",
    "mirror-map:bicubic": "02bd8c7d77773e0c81a9b9a1acf4f6e406e38cf5000b57be47b87b455c908056",
    "mirror-map:local-p1": "64fce4c805e9fbf8e5fbb54d88f0d9c6a485926cf20a2c27a4ed4137c53a8d78",
    "mirror-map:p1-o1": "bce6306f7358abf6845d7f8999b8d6a55234ff229f235569de390484e25cb2ee",
    "mirror-map:p3-o1-o1": "64fce4c805e9fbf8e5fbb54d88f0d9c6a485926cf20a2c27a4ed4137c53a8d78",
    "mirror-map:p4-o1": "64fce4c805e9fbf8e5fbb54d88f0d9c6a485926cf20a2c27a4ed4137c53a8d78",
    "mirror-map:p5-o-1-o-5": "64fce4c805e9fbf8e5fbb54d88f0d9c6a485926cf20a2c27a4ed4137c53a8d78",
    "mirror-map:quintic": "a743439c3c8fb5ef1a82fe6fc4ef84121c46f74de782a0c667a70997ecb8409e",
    "oracle:bicubic": "ab2a80bd2d9b954ae0cd10b0c6b47f7635bdb8a70d775ac9fae49e89d8baaee5",
    "oracle:local-p1": "3bedf14f700be00f769f08352f50da02115a60d7c0075091502f7c9f76aec0cc",
    "oracle:p1-o1": "ff8ae3205d4478a86565faa642ddf3fed03c52958e0caf529142c7207218ff0f",
    "oracle:p3-o1-o1": "c1b9f098e1f29c6692dc264f408934e69484ff186a1e85f283377a659f31e686",
    "oracle:p4-o1": "a649a1a54752a118d5216f5f300f5e17f6348c5220e8fcdd79b0107c3367741b",
    "oracle:p5-o-1-o-5": "c1e3813608f6490fc493c642eab8247d9d743db7e30c3e42606270e10fbda91e",
    "oracle:quintic": "e96254c0fe98d1db966fcde516698eb9b3131cba46e63ff0faa92a83cad5d8dd",
    "serre:bicubic": "2c4ae69347f9c76ae1fb1e26cfce096d68cba8e637565dac8cbba1bf57d51362",
    "serre:local-p1": "8b2a71fe6009cee88ca88bf792f2064abee627b2c97801faa76dfd5ad084229b",
    "serre:p1-o1": "e6693e20bae50cdc3857a2ebf12b1eb8d810b4764e8efe0ddb24786a21baf3a1",
    "serre:p3-o1-o1": "f5aa2e56dd66fda9d193bcbca3149ee523d8b7dc7e34145a48fe662095a61b45",
    "serre:p4-o1": "2c025e7b5a684898b577112ab52e89b6df6361620c2da3d6798b0ddd334c2839",
    "serre:p5-o-1-o-5": "8b2a71fe6009cee88ca88bf792f2064abee627b2c97801faa76dfd5ad084229b",
    "serre:quintic": "72cf48f40cf3bca8cd5c6b5578966b86391f4848e7e6920a4c76ae1c7a0f83f8",
    "verify:bicubic": "c84f627ec11189fe9e5f703426e048188757b1643e1a1f7c9734afe807dacbb6",
    "verify:local-p1": "6756cfe0638e57116ea2f5a6894e4d9ce0e3cd64318fbc7f1ae3b98bf89a644a",
    "verify:p1-o1": "ff8ae3205d4478a86565faa642ddf3fed03c52958e0caf529142c7207218ff0f",
    "verify:p3-o1-o1": "4bc5027c547a14d22be82257ae6989c2809ebe177eed0e087ad51c63eae3fa81",
    "verify:p4-o1": "de4abb7781b33e227ae6d4b3c23e67bebd2dbf0ab97f8113c899e603f2e3c314",
    "verify:p5-o-1-o-5": "a73a87666ee882348e4a3d503e989e55bcf51a825e25bef978a933cf7ff5b021",
    "verify:quintic": "35f9531b19525a0e5b66a87db83bc1a5b986b4cd16961e68fc8879fdbd357313",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_cli_bytes_unchanged(capsys, case):
    cmd, geometry = case.split(":")
    assert cli_digest(capsys, cmd, geometry) == DIGESTS[case]
