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
import json
from pathlib import Path

import pytest

from permcm import Permutation, classify, cover_ideal, graph_from_permutation, vertex_splittable_test
import permcm.classes
from permcm import cli
from permcm.cli import main
from bruteforce import all_graphs, serial_permutation_classes
from test_classes import _cm_failing_on_p4

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
    # recorded while every CSV row went through csv.writer and every
    # member's edges through a sorted inversion list
    (("survey", "--n", "7"), 0,
     "9592d5e0276cbd1cf416fa7eb5128868362e1143eed8fda3e7b57613c91acaae"),
    (("survey", "--n", "6", "--format", "json"), 0,
     "6feaade5bcb393a027535e047b1eeed73983df944e0cef5ddabf8c21a45ab563"),
    # the smallest surveys, recorded while each member was held as a
    # tuple of its key, its edges cell and its class's row dict
    (("survey", "--n", "0"), 0,
     "b55cc7ebb5e39824866410427d33389a4b4c218bafde7338819e8e25344e40ed"),
    (("survey", "--n", "1"), 0,
     "3acd779000cca3d6788c905a4bc2e7d52c54ca40ce9f3c604d901be5cfef5359"),
    (("survey", "--n", "2"), 0,
     "120b9a670661b04b3f76fab16e699ff924de379492c7ae88c34c8390e7e01974"),
    (("survey", "--n", "0", "--format", "json"), 0,
     "0ad8ba28426c3e38e27de019a0a177feacd366fd20323532651f49e5f0960a68"),
    (("survey", "--n", "1", "--format", "json"), 0,
     "3336705a003c58c05da7104e21c3622dddb70955c9aa4a951f72f75a62a46db7"),
    (("survey", "--n", "2", "--format", "json"), 0,
     "a5698c2d9bfed479c3e106a670d2a214164a16d391970308d6a13baf0a35bcab"),
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
    # the two graphs of the n = 16 ``hochster`` cap, 8K_2 and P_16,
    # recorded with PERMCM_CAPS=hochster=16 while the n = 14 cap stood
    # and before the Hochster sum folded dominated vertices
    (("classify", "--perm", "2,1,4,3,6,5,8,7,10,9,12,11,14,13,16,15"), 0,
     "b076f3e9678c04528bf5fe3c6aff6676ec09899f3448dfd3d3e25f4d39dec4dd"),
    (("classify", "--perm", "2,4,1,6,3,8,5,10,7,12,9,14,11,16,13,15"), 0,
     "4706f4d55e77351cfcb1ce1374ed6af87a2f565b934a3b2c6da1788956815468"),
    # cover ideals on the same permutations, recorded while `ideal` still
    # took `--power`: the stdout of `ideal --perm X` without it
    (("ideal", "--perm", "2,1,3"), 0,
     "dc33a5121504a991f50685d3c63ebc8be54c91151b8edddb0edf645a7fa134a3"),
    (("ideal", "--perm", "1,4,3,2,5"), 0,
     "d37c437057ab835a579cb4b5e0be515ff95542d6da1ab07863c5a097a4c59e7c"),
    (("ideal", "--perm", "1,3,2,4"), 0,
     "11a40f11b54bb2731d1ae07d9f32110cd1ed506ccd28a005913148c82a7d8e7b"),
    (("ideal", "--perm", "1,2,3"), 0,
     "de6a1703779bf7914a7a58f8a4fe3c2f11cc7e3f12f1711eb5b9f760d1dee406"),
    (("ideal", "--perm", "3,1,2,4,6,5"), 0,
     "131dcc76f5542cf6d0c63889f97ba4633a9a2a515e56765512871bcf5c0311a6"),
    (("ideal", "--perm", "2,1,4,3,5,6"), 0,
     "91e1af68f2470921ef8c31362d2e858113d4b71cf28d9872021fb298d6e51730"),
    (("ideal", "--perm", "1,5,4,3,2,6,7"), 0,
     "01bb5ffb35b66c9da7e5481431870ae5b1a2233286e9c87bf64f897d30977c32"),
    (("ideal", "--perm", "2,1,3,5,4"), 0,
     "522b50b5149e46f1a757f46222b1fe7700bd037c040fbdec037ca191f0f496e6"),
    (("ideal", "--perm", "2,1,3,6,5,4"), 0,
     "cccd873e8fbd3b4c1af9344cae3c452bda0a64d9305854f9ee1814f0b6a2368e"),
    (("ideal", "--perm", "3,4,1,2,5"), 0,
     "0d87a21caed13972e1aa1a9d0ea04b7b6dbcdc4b5effe00d3f1bc3608221a9dd"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED,
                         ids=[" ".join(argv) for argv, _, _ in PINNED])
def test_stdout_digest(argv, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(list(argv))
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# SHA-256 over the classification report of every labelled graph with
# 1 <= n <= 5 (24 of them not permutation graphs), with and without the
# oracle, recorded before the reports were serialised from their fields
REPORTS_DIGEST = "7a7931246d414f79737578b36ce71577177bdc56daa1a36b63eec9009b7899ad"


def test_classify_reports_of_every_small_graph():
    h = hashlib.sha256()
    for n in range(1, 6):
        for g in all_graphs(n):
            for with_oracle in (True, False):
                report = classify(g, with_oracle=with_oracle).to_dict()
                h.update(json.dumps(report, indent=2, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == REPORTS_DIGEST


# (PERMCM_CAPS, argv, SHA-256 of stdout) of sweeps past the default caps
# or at the cap, recorded while the verify sweeps still listed their
# classes by scanning S_n and built an edge key for every member.  The
# n = 7 rows are the benchmark's sweep-s7 calls, with its caps.
SWEEP_CAPS = "ainv=7,bicm=7,hilb=7,covs=7"
PINNED_SWEEPS = [
    ("", ("verify", "vd", "--n", "7"),
     "4f6892f20766380d21d7eebd92f61b8b7dc0a67e36d326428129bd47f4e4f324"),
    ("", ("verify", "cm", "--n", "7"),
     "04470106f88c5dbd31b2ca67c0648217459aa429a9b83801593516f29bccec93"),
    ("", ("verify", "goren", "--n", "7"),
     "bc100270a44d9b0b783ec46de17335cdd8fae2213db9035f995daf9349d2c3ad"),
    ("", ("verify", "nearly", "--n", "7"),
     "9b8715ef4a1976fa0bbabff23fc4599d514eeb83b3db0f0655e199fe7c12a594"),
    (SWEEP_CAPS, ("verify", "ainv", "--n", "7"),
     "c3e9595b75fb483cc3a517f7ed0f1de58f5b6c7bae176b452cdd1d87ba622fb6"),
    (SWEEP_CAPS, ("verify", "bicm", "--n", "7"),
     "11411c1a5923a0b04cc8d8cc5686da9b674506e3db2ae5662c5fd76856b50e7f"),
    (SWEEP_CAPS, ("verify", "hilb", "--n", "7"),
     "b62f333469317cc253c90e42063cdd864387d4097db5491e84c5b79d5c913405"),
    (SWEEP_CAPS, ("verify", "covs", "--n", "7"),
     "0d9b38f7926347a1e94a2048e8ef04d1cc6e71603174c47d00b51afe94417088"),
    ("", ("verify", "shed", "--n", "7"),
     "ceb7a6e3d53bae9d61d20fe58a6257218af7d50d0c1de1373773ee3c0e7d3c60"),
    ("", ("verify", "gap", "--n", "7"),
     "0d3e297f5847e9d69c0a03a3a01a3c8dcf26173edefc1c24d7b0bcd3b3d7fe26"),
    ("cm=8", ("verify", "cm", "--n", "8"),
     "1453b59d09bd194718284419f1cecc81b7d3be5bcf338f6b6094f4626f7f3050"),
    ("", ("verify", "gap", "--n", "8"),
     "b50946c9e55f872d6f36042d721b3b03c06728947f543b9064b812fff47a2183"),
]


@pytest.mark.parametrize("caps,argv,digest", PINNED_SWEEPS,
                         ids=[" ".join(argv) for _, argv, _ in PINNED_SWEEPS])
def test_sweep_stdout_digest(monkeypatch, caps, argv, digest):
    monkeypatch.setenv("PERMCM_CAPS", caps)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(list(argv))
    assert got == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# the benchmark's digests, recorded from the seed tree
GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())

# (PERMCM_CAPS, argv, SHA-256 of stdout) of pooled sweeps, which must
# print what they print serially, checked before both sweeps mapped
# their classes through one pool: the benchmark's survey, the serial
# survey pins of n = 6 in both formats, and a verify whose 776 classes
# split unevenly over the pool's slices
_SERIAL = {argv: digest for argv, _, digest in PINNED}
PINNED_POOLED = [
    ("", ("survey", "--n", "8", "--jobs", "2"), GOLDEN["survey"]),
    ("", ("survey", "--n", "6", "--jobs", "2"), _SERIAL[("survey", "--n", "6")]),
    ("", ("survey", "--n", "6", "--format", "json", "--jobs", "2"),
     _SERIAL[("survey", "--n", "6", "--format", "json")]),
    (SWEEP_CAPS, ("verify", "bicm", "--n", "7", "--jobs", "2"),
     {argv: digest for _, argv, digest in PINNED_SWEEPS}[("verify", "bicm", "--n", "7")]),
    # the benchmark's survey as JSON, recorded while each member was
    # held as a tuple of its key, its edges cell and its class's row dict
    ("", ("survey", "--n", "8", "--format", "json", "--jobs", "2"),
     "d2adf6a82cc3b8c195172486f9a1933d41c0bfab1810da681cee7a6d25a8b927"),
    # the gap sweep past its cap, recorded while it still selected its
    # graphs by the structural Gorenstein flag instead of by the ring
    ("gap=9", ("verify", "gap", "--n", "9", "--jobs", "2"),
     "a6fec64be05dc247e65c38e4beafebb5567c142a6c3ae9e268560854de6def20"),
]


@pytest.mark.parametrize("caps,argv,digest", PINNED_POOLED,
                         ids=[" ".join(argv) for _, argv, _ in PINNED_POOLED])
def test_pooled_stdout_digest(monkeypatch, caps, argv, digest):
    monkeypatch.setenv("PERMCM_CAPS", caps)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(list(argv))
    assert got == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweeps_in_one_process_drop_their_levels(monkeypatch, jobs):
    # a survey, a verify and a survey again in one process: each sweep
    # builds the class records it maps and drops them once its map ends,
    # so each prints its pinned bytes and leaves no records and no
    # expanded children; a verify whose class fails, and is expanded
    # member by member, leaves none either
    def assert_dropped():
        assert permcm.classes.class_records.cache_info().currsize == 0
        assert permcm.classes._expand_child.cache_info().currsize == 0

    for argv in [("survey", "--n", "6"), ("verify", "cm", "--n", "6"),
                 ("survey", "--n", "6", "--format", "json")]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            got = main([*argv, "--jobs", jobs])
        assert got == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == _SERIAL[argv]
        assert_dropped()
    monkeypatch.setitem(cli._CHECKS, "cm", _cm_failing_on_p4)
    assert cli.run_verify("cm", 6, jobs=int(jobs)).discrepancies
    assert_dropped()


def test_n7_sweep_pins_are_the_benchmark_golden_digests():
    pinned = {argv[1]: digest for _, argv, digest in PINNED_SWEEPS if argv[3] == "7"}
    assert pinned == GOLDEN["verify"]


# ``verify ainv --n 8`` with its sweep cap raised, recorded before the
# Hochster sum read folded subsets off one table over the used vertices
AINV_8_DIGEST = "a6ae10ba76280d1f49c0eb973ff39dc7740804716d6fa384f741eb23889e791f"


def test_verify_ainv_at_n8_digest(monkeypatch):
    monkeypatch.setenv("PERMCM_CAPS", "ainv=8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = main(["verify", "ainv", "--n", "8"])
    assert got == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == AINV_8_DIGEST


# SHA-256 over the splitting witness tree of the cover ideal of every
# labelled graph with 1 <= n <= 5 and of one member of every S_7 class:
# 1,875 trees, 230 of them None, recorded while the witness builder
# asked the memoised yes/no search and then a second, labelled search
# for each pivot
WITNESS_TREES_DIGEST = "b1044f23ec3dd3f9810354d649e185be7f0a75e649c918cc36087e336a50c065"


def test_splitting_witness_trees_digest():
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    graphs += [graph_from_permutation(Permutation(m[0])) for m in serial_permutation_classes(7)]
    h = hashlib.sha256()
    for g in graphs:
        h.update(json.dumps(vertex_splittable_test(cover_ideal(g))).encode() + b"\n")
    assert len(graphs) == 1875
    assert h.hexdigest() == WITNESS_TREES_DIGEST
