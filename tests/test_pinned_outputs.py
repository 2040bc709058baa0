"""Byte-for-byte pins of the CLI's stdout.

The digests were recorded before the per-graph facts and the sweep
driver were shared between callers (the ``ideal`` rows before the
ordering searches were merged into one, the n = 14 ``classify`` rows
while the Hochster sum still walked every vertex subset with dense
Bareiss ranks); any change to what the commands print shows up here as
a digest mismatch.
"""

import contextlib
import hashlib
import io

import pytest

from permcm.cli import main

# (argv, exit code, SHA-256 of stdout)
PINNED = [
    (("verify", "vd", "--n", "6"), 0,
     "14f9a31fe2c7ce2b07d48944123006ca23b4bb9aeec49cc87ebb7b5fb9449142"),
    (("verify", "cm", "--n", "6"), 0,
     "db088dc61fd91523d6c25f0cbf1237d796d8f0c8a7bcf9ad048e7257ccfe53ed"),
    (("verify", "goren", "--n", "6"), 0,
     "b74c2351a8da8faf04341d608dc3c0e280c8d13c3c32efd8f2d01e80db110e97"),
    (("verify", "nearly", "--n", "6"), 0,
     "6e1d3fea2b18146d80fc39199e51f848b7f78684f48b78cca0160853f1f9098b"),
    (("verify", "ainv", "--n", "6"), 0,
     "1c297b7f1fefa3d475f02b8bdae6286d8301341e0e7a19093d5851ff1328e4fb"),
    (("verify", "bicm", "--n", "6"), 0,
     "5425f79b64b07d68044b1c5c313e4ee6bee03c450e0ee42cbb0539922feafe21"),
    (("verify", "hilb", "--n", "6"), 0,
     "fa05642961aa11b4259766a4360890687595ef2c120c9f9aae1583c5ed209f7f"),
    (("verify", "covs", "--n", "6"), 0,
     "5303c4c761cc79ad2177b4b4466506d6048667ea0aade0d3e2e9b9f9e9c327af"),
    (("verify", "shed", "--n", "6"), 0,
     "611d30f557ec02aa67a8dd49f6da96fc0f782823c5777b9f4e1e5643801a0ab0"),
    (("verify", "gap", "--n", "6"), 0,
     "24e4b92a18dbde5e7938c7c851a7cacb7db721712d36e02bb253572580c75793"),
    (("survey", "--n", "6"), 0,
     "48176e738636cf6ed71541288718cb854a851d64b7fa4ab1ead4368c05ee8cdf"),
    # permutations whose inversion graphs have isolated vertices
    (("shed", "--perm", "2,1,3"), 0,
     "552bae4e157f1cdbf867ba0296f65e2332097ba86582659260f47439b080084c"),
    (("classify", "--perm", "2,1,3"), 0,
     "0973cea9b9d8b172c4680d779de3e4d22d312181ea3ffdfdce10288efeb3b473"),
    (("shed", "--perm", "1,4,3,2,5"), 0,
     "a3d72f475839c962bd5c4add66cc80364cec37ddde97affa41fdf3c5669ab5ba"),
    (("classify", "--perm", "1,4,3,2,5"), 0,
     "e3ae047ea8363ec0e2a7c7e8382516fbc4cbbc940e3136140405a9d003301013"),
    (("shed", "--perm", "1,3,2,4"), 0,
     "3542296f75a7b2804b06981d0bdb26bdb15bb43a024d29656f63f8632ccc54f0"),
    (("classify", "--perm", "1,3,2,4"), 0,
     "2c020e0e56d8b51fc59b9d35bb930b9325df7cb3f22abf307a4448631cbf74e4"),
    (("shed", "--perm", "1,2,3"), 0,
     "d2212d4c8976dad7d92352479d5be4491c17ed9cedb8bcac49c15da5c1de787e"),
    (("classify", "--perm", "1,2,3"), 0,
     "a219c515fa67a6bd5a57d252ddf52c78f0242d56c64dc3dc1a6eefdf39f913fe"),
    (("shed", "--perm", "3,1,2,4,6,5"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("classify", "--perm", "3,1,2,4,6,5"), 0,
     "88fd79de86f13dbcd3f223b147f5550b5320bb9857d82634b4f2c757e9392405"),
    (("shed", "--perm", "2,1,4,3,5,6"), 0,
     "64ff5220bef286b95c9a76e90b1b4237658387b456710998c63a723397ce2a32"),
    (("classify", "--perm", "2,1,4,3,5,6"), 0,
     "74844f930a9d469842a25dc048210e96c28fef1940b8a0a742f1bdd46707ff15"),
    (("shed", "--perm", "1,5,4,3,2,6,7"), 0,
     "1240e8d25cddccf8e6eb7a75ab3037822245041b250856ecf9090d8e89db621e"),
    (("classify", "--perm", "1,5,4,3,2,6,7"), 0,
     "8f66ba4fcad3f912422359b34ef38c834cbd1a9552aad1c6aee3a1238a00e67c"),
    (("shed", "--perm", "2,1,3,5,4"), 0,
     "65c97c69035a9b3fea04827b8f6ff6b383a449bf34bb1df8ef6175d1bca18f9c"),
    (("classify", "--perm", "2,1,3,5,4"), 0,
     "131622390610c095a871ab6552204dd781cfafd23e42f8aeb227594c25c93d8a"),
    (("shed", "--perm", "2,1,3,6,5,4"), 0,
     "489c5cffafe95bd54462a13b5443d9989434acf86b97222429a81ed81f1b9773"),
    (("classify", "--perm", "2,1,3,6,5,4"), 0,
     "878db51815ab354eed40aaf69f1a05cf47f6a6532703598c7066265b23f9adf8"),
    (("shed", "--perm", "3,4,1,2,5"), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("classify", "--perm", "3,4,1,2,5"), 0,
     "4f55422548acb952f2bca1fd0c626c823a53669f8b7becc707691b3d30bf03c5"),
    # the two graphs of the n = 14 ``hochster`` cap, 7K_2 and P_14
    (("classify", "--perm", "2,1,4,3,6,5,8,7,10,9,12,11,14,13"), 0,
     "c96e72a57c5d1aa199b73a48e9cf8441e2b2a0175ebf00a06430a8812e519f23"),
    (("classify", "--perm", "2,4,1,6,3,8,5,10,7,12,9,14,11,13"), 0,
     "a1f1aa8e54b01af4cc3c100f2018fefd57e4060a5f3f8b96e1342f79dfed0947"),
    # cover ideals and their squares, on the same permutations
    (("ideal", "--perm", "2,1,3", "--power", "2"), 0,
     "3109329bc2e226d8b7ade8124b4da60600cb0a4c34027b9e7b580fbd244dc39d"),
    (("ideal", "--perm", "1,4,3,2,5", "--power", "2"), 0,
     "515664cbb71897c9a19315055fafa7f52b7de2b1f41aeda396869675f88f57b5"),
    (("ideal", "--perm", "1,3,2,4", "--power", "2"), 0,
     "af3a923e70f33fedba6ba3eefd03a6ebe51d0fda3c217de3bfdf75b977b4c961"),
    (("ideal", "--perm", "1,2,3", "--power", "2"), 0,
     "79db8e521d5b55328106809c1478bb4c1603a894f5ef966a03b6bf7cdd0a1563"),
    (("ideal", "--perm", "3,1,2,4,6,5", "--power", "2"), 0,
     "b2d9010be7d71905ffe605f5ae213ed24f7e14bc8694063bcc3fb1d3b20169e8"),
    (("ideal", "--perm", "2,1,4,3,5,6", "--power", "2"), 0,
     "a62ee182c5082de045cc799f4f4b468dfec78c82fd59aa4701f39413cb770045"),
    (("ideal", "--perm", "1,5,4,3,2,6,7", "--power", "2"), 0,
     "6af1c70151ccf8b41a88f2ecf15847d5621e22aabe47ee87ab9c0f9b870e8f81"),
    (("ideal", "--perm", "2,1,3,5,4", "--power", "2"), 0,
     "38a017f2dc3c8a1c937004ca02d3c61669ac31ec421961e2f15f45925ffb0295"),
    (("ideal", "--perm", "2,1,3,6,5,4", "--power", "2"), 0,
     "7074fb1ffdc2ea99ca9fe97a62df34dc9355801e710ef860f92894afe4857b3c"),
    (("ideal", "--perm", "3,4,1,2,5", "--power", "2"), 0,
     "55219fc89db92b74d83ebc445693c4c3f7faac483360797e35d33b5353348cdf"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED,
                         ids=[" ".join(argv) for argv, _, _ in PINNED])
def test_stdout_digest(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(list(argv))
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
