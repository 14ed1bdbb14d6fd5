"""CLI output is pinned byte for byte.

Each case runs one command on one geometry in-process and compares the
SHA-256 of its exit code, standard output and standard error with a pinned
digest.  The digests were computed before the integer-numerator class kernel
and the one-pass exp/log replaced the dense ``Fraction`` kernel and the
power sums, so a change to the exact arithmetic that alters any report,
error payload or exit code fails here.  One digest was recomputed since:
``mirror-map:p1-o1``, whose report gained the string dial -q that the map
applies (P1 with O(1) has Fano index 1).

``REPORT_DIGESTS`` pins the rest of the report path: ``--format tsv`` on the
geometries above, both formats on the other shipped geometries, and, for
each of these runs, the name and bytes of the file written to ``--out``.
They were computed before the commands came to share one emitter.
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
    "local-p2": os.path.join(_ROOT, "geometries", "local-p2.json"),
    "p6-o3-o2-o2": os.path.join(_ROOT, "geometries", "p6-o3-o2-o2.json"),
    "p7-o2x4": os.path.join(_ROOT, "geometries", "p7-o2x4.json"),
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


def cli_digest(capsys, cmd: str, geometry: str, fmt=None, out_dir=None) -> str:
    """Digest of one run; with ``fmt``, run with that ``--format`` and with
    ``--out out_dir``, and digest the files written there too."""
    argv = [
        "--geometry", GEOMETRIES[geometry],
        "--cmd", cmd,
        "--max-degree", str(_degree(cmd, geometry)),
        "--seed", "3",
    ]
    if fmt is not None:
        argv += ["--format", fmt, "--out", str(out_dir)]
    rc = main(argv)
    captured = capsys.readouterr()
    parts = [str(rc), captured.out, captured.err]
    if out_dir is not None and out_dir.exists():
        for path in sorted(out_dir.iterdir()):
            parts += [path.name, path.read_text(encoding="utf-8")]
    blob = "\0".join(parts).encode("utf-8")
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


REPORT_DIGESTS = {
    "check:bicubic:tsv": "5a6ed039c11ba91f4f395ad00df92cb70bf3022fdf003af026471671cbacba6e",
    "check:local-p1:tsv": "fa740c65ff3f65516c98a1c2276b2e4869fbf83b69b083b24a2ec600c5b5459f",
    "check:local-p2:json": "b887c08d0729c0b27b1b417b5726913c1fb0e7354429ccaa16eb62aa98de3ace",
    "check:local-p2:tsv": "b887c08d0729c0b27b1b417b5726913c1fb0e7354429ccaa16eb62aa98de3ace",
    "check:p1-o1:tsv": "b887c08d0729c0b27b1b417b5726913c1fb0e7354429ccaa16eb62aa98de3ace",
    "check:p3-o1-o1:tsv": "71ffe1a8a9476502d8410cf6d789f47ac17261a68ed4bfb1907f77d4bedc43b8",
    "check:p4-o1:tsv": "71ffe1a8a9476502d8410cf6d789f47ac17261a68ed4bfb1907f77d4bedc43b8",
    "check:p5-o-1-o-5:tsv": "fa740c65ff3f65516c98a1c2276b2e4869fbf83b69b083b24a2ec600c5b5459f",
    "check:p6-o3-o2-o2:json": "b887c08d0729c0b27b1b417b5726913c1fb0e7354429ccaa16eb62aa98de3ace",
    "check:p6-o3-o2-o2:tsv": "b887c08d0729c0b27b1b417b5726913c1fb0e7354429ccaa16eb62aa98de3ace",
    "check:p7-o2x4:json": "b887c08d0729c0b27b1b417b5726913c1fb0e7354429ccaa16eb62aa98de3ace",
    "check:p7-o2x4:tsv": "b887c08d0729c0b27b1b417b5726913c1fb0e7354429ccaa16eb62aa98de3ace",
    "check:quintic:tsv": "b887c08d0729c0b27b1b417b5726913c1fb0e7354429ccaa16eb62aa98de3ace",
    "ifun:bicubic:tsv": "0d0903b5e1ed948ee1267b70593ae03d599d55bf99c350f1e776e234ebe901a3",
    "ifun:local-p1:tsv": "d1cefdfb05263598c55f000f290e8536b5917b5c3f626c9c1d05064250b001d8",
    "ifun:local-p2:json": "6209cdbfaeab8c6ce6b4a1eaabf2363dd92f251802e0fda3ab44c19fbe8dddff",
    "ifun:local-p2:tsv": "6209cdbfaeab8c6ce6b4a1eaabf2363dd92f251802e0fda3ab44c19fbe8dddff",
    "ifun:p1-o1:tsv": "cd7632f0a604b76278f0c212c57e7d5fd5887b7709d575f8dd28e8a4d22ea143",
    "ifun:p3-o1-o1:tsv": "e50c54df5ea927520700b8bcec72c79a20c2d8067dfbacf97369d01ee077508c",
    "ifun:p4-o1:tsv": "67e115d0dd6674c70dc8214de00583c0d31703de33eb730e5e0ba8eb6d972a35",
    "ifun:p5-o-1-o-5:tsv": "306716682417d7aca4266725ddf9bf77c3220802000608366815c40a3ad93120",
    "ifun:p6-o3-o2-o2:json": "764eab8ba9529c523c345e64e582423dc091c4028cc5bbb999a2d5c17304a9df",
    "ifun:p6-o3-o2-o2:tsv": "764eab8ba9529c523c345e64e582423dc091c4028cc5bbb999a2d5c17304a9df",
    "ifun:p7-o2x4:json": "5e147fc1482c2e7ecadb48f0361af6584824b6a7cdd937b972d236106a733bdc",
    "ifun:p7-o2x4:tsv": "5e147fc1482c2e7ecadb48f0361af6584824b6a7cdd937b972d236106a733bdc",
    "ifun:quintic:tsv": "c0189c6458d4d909a73d040ed5760749730c4f78d185c098fe7cacd47b6a026e",
    "invariants:bicubic:tsv": "1b0c804556435d6b4f049df148c74bd5408a038766f8c50420b491a375c2e1ae",
    "invariants:local-p1:tsv": "1c73d537acb7b970a110e7280e07686e3cd4a622c69f6ee1e89e076e00f964a2",
    "invariants:local-p2:json": "995c1ec60ff42c2596f86f9198841ac06fe6f2a3a7678cf238ae1520a7a39139",
    "invariants:local-p2:tsv": "dc1e313891deec6c2fe13492c4ee917becdafeb32f8d5a29f68ec8cf9552ec18",
    "invariants:p1-o1:tsv": "2375f35b870242d1ddf527beae6d675f28beea23376d6a1800f752413dabc8fa",
    "invariants:p3-o1-o1:tsv": "e145984e7241f170ca9af1680fcb20a56b809a860791e173d26880504476aae4",
    "invariants:p4-o1:tsv": "2375f35b870242d1ddf527beae6d675f28beea23376d6a1800f752413dabc8fa",
    "invariants:p5-o-1-o-5:tsv": "2375f35b870242d1ddf527beae6d675f28beea23376d6a1800f752413dabc8fa",
    "invariants:p6-o3-o2-o2:json": "4aeb014af8b2f7657ace6fd9484d7e941128cc81d9b3fcc974430892b8eeb24b",
    "invariants:p6-o3-o2-o2:tsv": "0e2bd10965770c6bade34dacdde7d96c8a086b90b470b6d92ea45e3beff1da40",
    "invariants:p7-o2x4:json": "c7d588c2a52e64616cbe2b19c29465a560ae0ce8e0325d5d782c1e0fab8ee780",
    "invariants:p7-o2x4:tsv": "97ecdb4826cd9e95faa15f7918e5d0ea458d70db845dcf4b369dc0b5186ee6a4",
    "invariants:quintic:tsv": "b3d5a51d175fd479d4e129e6be452fb4ea7783203fe97daeea4222e4fd495958",
    "mirror-map:bicubic:tsv": "1c7ffc884d2471028a1e4756f75d22db52b4b30c914bb97ef16d4a6adf7c4d59",
    "mirror-map:local-p1:tsv": "7a5d12f8899e9947115da0080d880fe6644c8b745719eb74f83b68d9272caa9f",
    "mirror-map:local-p2:json": "a35d732abb67d90bc780b47aa400b80aef48bb29ea141082885871993d1458fa",
    "mirror-map:local-p2:tsv": "a35d732abb67d90bc780b47aa400b80aef48bb29ea141082885871993d1458fa",
    "mirror-map:p1-o1:tsv": "0e45bcf9a93fecb331abce0452525c578213696908c8824d91399d88b80f345f",
    "mirror-map:p3-o1-o1:tsv": "7a5d12f8899e9947115da0080d880fe6644c8b745719eb74f83b68d9272caa9f",
    "mirror-map:p4-o1:tsv": "7a5d12f8899e9947115da0080d880fe6644c8b745719eb74f83b68d9272caa9f",
    "mirror-map:p5-o-1-o-5:tsv": "7a5d12f8899e9947115da0080d880fe6644c8b745719eb74f83b68d9272caa9f",
    "mirror-map:p6-o3-o2-o2:json": "5e3bb5c08c2935404e3b6d113dfcd38216b4aef07cd2a9c12d46505d47f269e6",
    "mirror-map:p6-o3-o2-o2:tsv": "5e3bb5c08c2935404e3b6d113dfcd38216b4aef07cd2a9c12d46505d47f269e6",
    "mirror-map:p7-o2x4:json": "196ff675ba84adc4d16a55d3ae95b3075b6666db9de0c86bdc541f500bc391f9",
    "mirror-map:p7-o2x4:tsv": "196ff675ba84adc4d16a55d3ae95b3075b6666db9de0c86bdc541f500bc391f9",
    "mirror-map:quintic:tsv": "e8f09cb8d0509bf94cb0cc047789733321d3f215b485ed4a395c6b7ba50285ed",
    "oracle:bicubic:tsv": "ab2a80bd2d9b954ae0cd10b0c6b47f7635bdb8a70d775ac9fae49e89d8baaee5",
    "oracle:local-p1:tsv": "b9802ae3cc6cf1619eb186621c3167332c02a3b5aeb9c0f8eb5948845bbe96cb",
    "oracle:local-p2:json": "0213ae3f88de21bd9d6e468cb6bd7f916843bbe43080d128505f5763f3367dcd",
    "oracle:local-p2:tsv": "0213ae3f88de21bd9d6e468cb6bd7f916843bbe43080d128505f5763f3367dcd",
    "oracle:p1-o1:tsv": "ff8ae3205d4478a86565faa642ddf3fed03c52958e0caf529142c7207218ff0f",
    "oracle:p3-o1-o1:tsv": "b7d3abdd99a618fa4f24f5614c90cdfa76fe97f7ec223542fe21e41a1ba70bd5",
    "oracle:p4-o1:tsv": "2be7cb7949591d71bdd95967bcff26315efd2070364847825030051016d03a85",
    "oracle:p5-o-1-o-5:tsv": "e7df313530f2a1ba3a8c85d3097ed25a4a531926fda3a9d335c77023298559c0",
    "oracle:p6-o3-o2-o2:json": "b5031ce6ec3cf358cbd09e2a45b7dd7c62579a343acd915eeb2a71203a7be58f",
    "oracle:p6-o3-o2-o2:tsv": "b5031ce6ec3cf358cbd09e2a45b7dd7c62579a343acd915eeb2a71203a7be58f",
    "oracle:p7-o2x4:json": "8a3abc1a46feaae9dd9c39dbafb5c8cfec09182df2d1c67a70eac99cc22b5f44",
    "oracle:p7-o2x4:tsv": "8a3abc1a46feaae9dd9c39dbafb5c8cfec09182df2d1c67a70eac99cc22b5f44",
    "oracle:quintic:tsv": "446176622fabb7545f870d5fadb5cb8dd98bb8a36b07a22397d2ae2b69321e60",
    "serre:bicubic:tsv": "2c4ae69347f9c76ae1fb1e26cfce096d68cba8e637565dac8cbba1bf57d51362",
    "serre:local-p1:tsv": "8b2a71fe6009cee88ca88bf792f2064abee627b2c97801faa76dfd5ad084229b",
    "serre:local-p2:json": "8b2a71fe6009cee88ca88bf792f2064abee627b2c97801faa76dfd5ad084229b",
    "serre:local-p2:tsv": "8b2a71fe6009cee88ca88bf792f2064abee627b2c97801faa76dfd5ad084229b",
    "serre:p1-o1:tsv": "00e20902f144ffb1c7352d0a0af22778aee1be87425e3158133096663ba479ed",
    "serre:p3-o1-o1:tsv": "f5aa2e56dd66fda9d193bcbca3149ee523d8b7dc7e34145a48fe662095a61b45",
    "serre:p4-o1:tsv": "2c025e7b5a684898b577112ab52e89b6df6361620c2da3d6798b0ddd334c2839",
    "serre:p5-o-1-o-5:tsv": "8b2a71fe6009cee88ca88bf792f2064abee627b2c97801faa76dfd5ad084229b",
    "serre:p6-o3-o2-o2:json": "93c0b7db1cd6130e2f3c101758a574165376be8c213036aff7cdabdfdabda8e5",
    "serre:p6-o3-o2-o2:tsv": "93c0b7db1cd6130e2f3c101758a574165376be8c213036aff7cdabdfdabda8e5",
    "serre:p7-o2x4:json": "335f9da24a34235a9481b7071c3cfe54e57ed4de13da60c86760d2ec296fd763",
    "serre:p7-o2x4:tsv": "335f9da24a34235a9481b7071c3cfe54e57ed4de13da60c86760d2ec296fd763",
    "serre:quintic:tsv": "72cf48f40cf3bca8cd5c6b5578966b86391f4848e7e6920a4c76ae1c7a0f83f8",
    "verify:bicubic:tsv": "c84f627ec11189fe9e5f703426e048188757b1643e1a1f7c9734afe807dacbb6",
    "verify:local-p1:tsv": "3708c033109bb45f2da351b7feb829aa9fe6c10376594ea3231588bcc167aabb",
    "verify:local-p2:json": "c75c51c96437398e93c36321b52a09b9093bf931b58eba428b3f2eb60f24caf2",
    "verify:local-p2:tsv": "98e617fe456001724257ec34ba4bf0a832c666277f2a03f4623889c38b5f2c15",
    "verify:p1-o1:tsv": "ff8ae3205d4478a86565faa642ddf3fed03c52958e0caf529142c7207218ff0f",
    "verify:p3-o1-o1:tsv": "10ab3959686bbba1b84d62e4fa07f1d3619e5ab9b1234a4256e7bd2b2eeb4534",
    "verify:p4-o1:tsv": "d197c21749c4fc06d78a2e4fd75d2a3aaf4bb098eb1049d9ed967dccd98d6816",
    "verify:p5-o-1-o-5:tsv": "d197c21749c4fc06d78a2e4fd75d2a3aaf4bb098eb1049d9ed967dccd98d6816",
    "verify:p6-o3-o2-o2:json": "27c73439e1847efd0bdfe18fbb0d2f4cc4700853083d9768a15cdd85cf2c571e",
    "verify:p6-o3-o2-o2:tsv": "f03b0fe6b09d38a397c23d4af0f27d5979560a23e7453246d423f8c8f3bec80c",
    "verify:p7-o2x4:json": "d06394a5c02895fd022b767ed96f52159c63d7f40e86dc362a892e5a33583e2c",
    "verify:p7-o2x4:tsv": "1f92305e79c832accfae8b374318cdefdfeff5c3cc5e29628a169ad98ac7da21",
    "verify:quintic:tsv": "5eae9de19fbdbaf43762bc4124f59612075ab273d0bfe5002aae8bdea1bf58e9",
}


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
def test_cli_report_and_out_file_unchanged(capsys, tmp_path, case):
    cmd, geometry, fmt = case.split(":")
    digest = cli_digest(capsys, cmd, geometry, fmt, tmp_path / "out")
    assert digest == REPORT_DIGESTS[case]
