"""Command-line interface: reports, exit codes, determinism, file formats."""

import errno
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import product as iproduct
from pathlib import Path

import pytest

import finord
from finord import cli, heyting, hierarchy, hsets, kernels, kripke, maps, order
from finord.errors import BudgetError
from oracles import certificate_dicts, relation_iso


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, _ = run(argv, capsys)
    return code, json.loads(out)


def test_build_claw_depth_one(capsys):
    code, doc = run_json(
        ["hierarchy", "build", "--base", "thm33", "--depth", "1"], capsys)
    assert code == 0
    assert doc["levels"] == [4, 8]
    assert doc["new_per_level"] == [4, 4]
    assert doc["schema"] == 1
    assert doc["elapsed"] is None
    assert doc["command"] == "hierarchy"
    assert len(doc["config_hash"]) == 12
    assert int(doc["config_hash"], 16) >= 0


def test_build_free_antichain(capsys):
    code, doc = run_json(
        ["hierarchy", "build", "--base", "antichain3", "--depth", "1"],
        capsys)
    assert code == 0
    assert doc["levels"] == [3, 7]
    assert doc["new_per_level"][1] == 4


def test_depth_zero_echoes_base(capsys):
    code, doc = run_json(
        ["hierarchy", "build", "--base", "thm33", "--depth", "0"], capsys)
    assert code == 0
    assert doc["levels"] == [4]
    assert doc["base_ids"] == [4, 5, 6, 7]
    assert doc["base_elements"][0] == "4 := { 1 }"


def test_stats_matches_build(capsys):
    _, build = run_json(["hierarchy", "build", "--base", "thm33"], capsys)
    _, stats = run_json(["hierarchy", "stats", "--base", "thm33"], capsys)
    assert stats["levels"] == build["levels"] == [4, 8, 22]
    assert stats["action"] == "stats"


def test_export_dot_document(capsys):
    code, out, _ = run(
        ["hierarchy", "export", "--format", "dot", "--depth", "1"], capsys)
    assert code == 0
    assert out.startswith("digraph")


def test_export_text_document(capsys):
    code, out, _ = run(
        ["hierarchy", "export", "--format", "text", "--depth", "1"], capsys)
    assert code == 0
    assert "4 := { 1 }" in out


def test_export_json_round_trips(tmp_path, capsys):
    target = tmp_path / "tower.json"
    code, out, _ = run(
        ["hierarchy", "export", "--depth", "2", "--out", str(target)], capsys)
    assert code == 0
    # report on stdout, document in the file
    assert json.loads(out)["command"] == "hierarchy"
    h = hierarchy.from_json(json.loads(target.read_text()))
    assert [len(level) for level in h.levels] == [4, 8, 22]


@pytest.mark.parametrize("base", ["antichain3", "file"])
def test_export_json_of_atom_base_reloads(base, tmp_path, capsys):
    # labels out of order: p sits below both r and q
    poset = hsets.base_poset(["r", "p", "q"], [("p", "q"), ("p", "r")])
    if base == "file":
        path = tmp_path / "base.json"
        path.write_text(json.dumps({
            "atoms": list(poset.labels),
            "leq": [["p", "q"], ["p", "r"]],
            "base": ["q", "r"],
        }))
        base = f"file:{path}"
    else:
        poset = hsets.abstract_antichain(3)[0].base
    target = tmp_path / "tower.json"
    code, _, _ = run(["hierarchy", "export", "--base", base, "--depth", "1",
                      "--out", str(target)], capsys)
    assert code == 0
    data = json.loads(target.read_text())
    h = hierarchy.from_json(data)
    assert h.universe.base == poset
    assert [sorted(level) for level in h.levels] == data["levels"]
    _, text, _ = run(["hierarchy", "export", "--base", base, "--depth", "1",
                      "--format", "text"], capsys)
    assert h.universe.dump() == text
    _, dot, _ = run(["hierarchy", "export", "--base", base, "--depth", "1",
                     "--format", "dot"], capsys)
    assert hierarchy.level_dot(h, 1) == dot


def test_file_base(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({
        "atoms": ["p", "q", "r"],
        "leq": [["p", "q"]],
        "base": ["q", "r"],
    }))
    code, doc = run_json(
        ["hierarchy", "build", "--base", f"file:{base}"], capsys)
    assert code == 0
    assert doc["levels"] == [2, 3, 3]


def test_file_base_missing_keys(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"atoms": ["p"]}))
    code, out, err = run(["hierarchy", "build", "--base", f"file:{bad}"],
                         capsys)
    assert code == 1
    assert "error" in err


def test_invalid_depth_is_config_error(capsys):
    code, _, err = run(["hierarchy", "build", "--depth", "-1"], capsys)
    assert code == 1
    assert "depth" in err


def test_unknown_suite_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nope"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_verify_stage_suite(capsys):
    code, doc = run_json(["verify", "lemma23", "--depth", "1"], capsys)
    assert code == 0
    assert doc["violations"] == []
    assert doc["checks"] > 0
    assert doc["suite"] == "lemma23"


def test_verify_fan_suite(capsys):
    code, doc = run_json(["verify", "lemma24", "--depth", "1"], capsys)
    assert code == 0
    assert doc["violations"] == []


def test_verify_growth_suite(capsys):
    code, doc = run_json(["verify", "thm26"], capsys)
    assert code == 0
    assert doc["level_sizes"] == [3, 7, 21, 16739]
    assert doc["violations"] == []


def test_verify_openness_suite_deterministic(capsys):
    argv = ["verify", "lemma31", "--max-size", "2", "--samples", "50"]
    code, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert code == 0
    assert out1 == out2
    assert json.loads(out1)["violations"] == []


def test_verify_seed_changes_nothing_structural(capsys):
    argv = ["verify", "lemma31", "--max-size", "2", "--samples", "20"]
    _, doc1 = run_json(argv + ["--seed", "1"], capsys)
    _, doc2 = run_json(argv + ["--seed", "2"], capsys)
    assert doc1["violations"] == doc2["violations"] == []
    assert doc1["config"] != doc2["config"]
    assert doc1["config_hash"] != doc2["config_hash"]


def test_obstruct_square(capsys):
    code, doc = run_json(["obstruct", "--poset", "product2x2"], capsys)
    assert code == 0
    assert doc["candidates"] == 25
    assert doc["refuted"] == 25
    for cert in doc["certificates"]:
        assert cert["certificate_kind"] == "empty_mediating_set"
        assert cert["stage"] == 1
        assert cert["mediating_found"] == 0
        assert cert["elapsed"] is None


def test_obstruct_singleton(capsys):
    code, doc = run_json(["obstruct", "--poset", "singleton"], capsys)
    assert code == 0
    assert doc["candidates"] == 1
    assert doc["certificates"][0]["p1"] == [0]


def test_obstruct_all_small_posets(capsys):
    code, doc = run_json(["obstruct", "--all-posets", "3"], capsys)
    assert code == 0
    assert doc["posets"] == 8
    assert doc["refuted"] == doc["candidates"]


def test_obstruct_file_poset(tmp_path, capsys):
    target = tmp_path / "chain3.json"
    target.write_text(json.dumps(order.to_json(order.chain(3))))
    code, doc = run_json(["obstruct", "--poset", f"file:{target}"], capsys)
    assert code == 0
    assert doc["refuted"] == doc["candidates"] > 0


def export_stage(alpha, path):
    """Write stage alpha of the thm33 tower as an `order.to_json` file."""
    u = hsets.Universe()
    h = hierarchy.build(tuple(hsets.concrete_claw(u)), alpha, u,
                        hierarchy.DEFAULT_BUDGET)
    stage, _ = hierarchy.materialize(h, alpha)
    path.write_text(json.dumps(order.to_json(stage)))
    return stage


# stage 1 of the thm33 tower (8 points) as a candidate: 676 certificates,
# 670 refuted at stage 1 and 6 at stage 2 with one mediating map each; run
# from the directory of its file, so the poset name holds no tmp path
X1_ARGV = ["obstruct", "--poset", "file:X1.json", "--depth", "2"]


def obstruct_argv(key, tmp_path, monkeypatch):
    """The command line of a CERTIFICATE_DIGESTS key: a bound N for
    `--all-posets N`, or X1."""
    if key != "X1":
        return ["obstruct", "--all-posets", key]
    export_stage(1, tmp_path / "X1.json")
    monkeypatch.chdir(tmp_path)
    return X1_ARGV


# digests of the `obstruct --all-posets N` certificate lists as produced
# before the obstruction sweep did its stage work once per run; they pin
# every candidate's candidates_examined, so a change in search order shows.
# X1's was taken while each certificate was still a dict;
# it pins what no `--all-posets` report holds: certificates at stage 2
# that found a mediating map
CERTIFICATE_DIGESTS = {
    "4": "8a392f646eb11ad50be158af0fb1f40164c5f599de4a29e8d24ad1f2eeee3dd7",
    "5": "9ea190d2d8a15ad0eba84011e3ebd41e7dc6529d41efa8a76d8ad9643076d3b7",
    "X1": "c4aed3b3b5f6d8cf791a2ccffbadbfc1e785e65d2f24549aa4b5ece87c9b287f",
}


@pytest.mark.parametrize("key", sorted(CERTIFICATE_DIGESTS))
def test_obstruct_certificates_golden(key, tmp_path, monkeypatch, capsys):
    code, doc = run_json(obstruct_argv(key, tmp_path, monkeypatch), capsys)
    assert code == 0
    text = json.dumps(doc["certificates"], sort_keys=True,
                      separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        CERTIFICATE_DIGESTS[key])


def test_obstruct_size5_examines_9482_nodes(capsys):
    # every size-5 candidate is refuted by its stage-1 search: the nodes of
    # those searches, summed, which the traced benchmark no longer counts
    # as map-kernel nodes since one pinned search serves a poset
    code, doc = run_json(["obstruct", "--all-posets", "5"], capsys)
    assert code == 0 and doc["candidates"] == 2737
    assert sum(c["candidates_examined"] for c in doc["certificates"]) == 9482


@pytest.mark.parametrize("key", ["4", "X1"])
def test_obstruct_report_matches_certificate_dicts(key, tmp_path,
                                                   monkeypatch, capsys):
    # the certificate texts against the stdlib's rendering of the dicts
    argv = obstruct_argv(key, tmp_path, monkeypatch)
    code, out, _ = run(argv, capsys)
    assert code == 0
    u = hsets.Universe()
    h = hierarchy.build(tuple(hsets.concrete_claw(u)), 2, u,
                        hierarchy.DEFAULT_BUDGET)
    if key == "X1":
        posets = [order.from_json(json.loads(Path("X1.json").read_text()))]
        names = ["file:X1.json"]
    else:
        posets = order.enumerate_posets(int(key))
        sizes = [p.n for p in posets]
        names = [f"poset{n}.{i - sizes.index(n)}" for i, n in enumerate(sizes)]
    certificates = certificate_dicts(h, posets, names)
    doc = {**json.loads(out), "certificates": certificates}
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_obstruct_report_splices_past_a_lookalike_name(tmp_path, monkeypatch,
                                                      capsys):
    # the poset's name, in the config and in each certificate, holds the
    # text the certificates are spliced at, a backslash and a quote
    name = 'c"certificates": [] \\ é.json'
    (tmp_path / name).write_text(json.dumps(order.to_json(order.chain(3))))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["obstruct", "--poset", f"file:{name}"], capsys)
    assert code == 0
    u = hsets.Universe()
    h = hierarchy.build(tuple(hsets.concrete_claw(u)), 2, u,
                        hierarchy.DEFAULT_BUDGET)
    certificates = certificate_dicts(h, [order.chain(3)], [f"file:{name}"])
    doc = {**json.loads(out), "certificates": certificates}
    assert doc["config"]["poset"] == f"file:{name}"
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_obstruct_budget_error_mid_sweep_leaves_only_the_error(
        monkeypatch, capsys):
    # a sweep that raises after one poset's block has been written: the
    # report holds the error alone
    sweep = maps.product_obstructions
    error = {"message": "no stage within the tower outgrows the candidate",
             "stage": 2, "used": 3, "budget": 22}
    yielded = []

    def planted(h, posets):
        blocks = sweep(h, posets)
        yielded.append(next(blocks))
        raise BudgetError(error["message"], stage=error["stage"],
                          used=error["used"], budget=error["budget"])

    monkeypatch.setattr(maps, "product_obstructions", planted)
    code, out, err = run(["obstruct", "--all-posets", "3"], capsys)
    assert code == 2 and err == ""
    assert len(yielded) == 1 and len(yielded[0][3]) == 1
    doc = json.loads(out)
    assert doc["error"] == error
    assert set(doc) == {"schema", "version", "command", "config",
                        "config_hash", "elapsed", "error"}
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "certificate" not in out


def test_obstruct_budget_error_comes_before_the_posets_block(
        tmp_path, monkeypatch, capsys):
    # at depth 1, six of X1's candidates find injective mediating maps on
    # stage 1 and no stage outgrows them: the error names the candidate's 8
    # points against the 8 of the top stage, and comes before X1's block
    yielded = []
    sweep = maps.product_obstructions

    def counted(h, posets):
        for item in sweep(h, posets):
            yielded.append(item)
            yield item

    argv = obstruct_argv("X1", tmp_path, monkeypatch)
    monkeypatch.setattr(maps, "product_obstructions", counted)
    code, out, err = run([*argv[:-1], "1"], capsys)
    assert code == 2 and err == "" and yielded == []
    assert json.loads(out)["error"] == {
        "message": "no stage within the tower outgrows the candidate",
        "stage": 1, "used": 8, "budget": 8}


def test_obstruct_x1_at_depth_three_report_golden(tmp_path, monkeypatch,
                                                   capsys):
    # a tower with a third stage that no candidate reaches: the six that
    # stand through stage 1 are refuted at stage 2, as at depth 2
    argv = obstruct_argv("X1", tmp_path, monkeypatch)
    code, out, _ = run([*argv[:-1], "3"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3537105ece8be2747afa23d2d304570c3242ff847d9818b6cb40a5b1516aa90a")


def test_obstruct_candidate_cap_stops_a_sweep_before_it_starts(
        tmp_path, monkeypatch, capsys):
    # stage 2 of the tower, 22 points, has 16,758 open maps into the chain:
    # 280.8 million candidates, far above the cap
    path = tmp_path / "X2.json"
    export_stage(2, path)

    searches = []
    search = kernels.enumerate_maps

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(kernels, "enumerate_maps", counted)
    start = time.perf_counter()
    code, out, err = run(["obstruct", "--poset", f"file:{path}",
                          "--depth", "2"], capsys)
    assert time.perf_counter() - start < 5
    # the poset's open maps were enumerated; no candidate was searched
    assert len(searches) == 1
    assert code == 2 and err == ""
    assert json.loads(out)["error"] == {
        "message": "too many candidates for one sweep",
        "stage": 1, "used": 16758 ** 2, "budget": order.MAX_CANDIDATES}


# digests of whole reports: coreflect as produced before verify_coreflection
# took every preorder of a frame in one call, duality and bao before the
# isomorphism tests and cha_morphisms ran on the map-search kernel, obstruct
# and export as written by the stdlib's indenting JSON encoder, so they pin
# the formatting of a whole report and of a whole exported document;
# obstruct6 as written before the map kernel became a loop, with its 28,835
# pinned searches and their node counts (`candidates_examined`); lemma23 at
# depths 1 and 2 as written while the stage check still compared pairs;
# lemma31 as written while each check built a second PointMap from the table;
# coreflect4, lemma32, thm26 and lemma24 as written while order, maps and
# kripke each kept their own copies of the row unions, images, preimages and
# transitive closure (coreflect4 classifies frames up to isomorphism and
# closes each frame's reachability rows); coreflect4_3, the 3-point
# preorders into frames of up to 4 states, as checked while every (frame,
# preorder) pair built its own report and each frame its own subframe
REPORT_DIGESTS = {
    "coreflect": (["verify", "coreflect", "--states", "3"],
                  "097112765b1344d77c28cdf3a1a545c8e660a2e39c31cc8e46f25e0fe8b45228"),
    "duality": (["verify", "duality"],
                "05bd613d188e3d3ee82378ab95dd1b24e5c0157493fa7ab84ed965478fe06d68"),
    "bao": (["verify", "bao"],
            "d63f8c80faba17bbdde98e2ed4cb2cecc8994e9c15b3e51c93040297ecc099a6"),
    "obstruct5": (["obstruct", "--all-posets", "5"],
                  "c0e94d495ce060bc6b01eb9a9e0b35db336b49c1820e3bc91570fbda13176fa1"),
    "obstruct6": (["obstruct", "--all-posets", "6"],
                  "c37d49a432beaa28ee4da3d43ebe171858060b4167bffbdcd88b20fba7d24240"),
    "export2": (["hierarchy", "export", "--depth", "2"],
                "ff873aaa887128865953d3e837a662bd9c88ca1a8688c6ea2d7e6fdc14e5dc13"),
    "lemma23_1": (["verify", "lemma23", "--depth", "1"],
                  "db44e789394103c5622cf6cbe0e8482585294435f5a1b0b5ffc697b8c8f5e252"),
    "lemma23_2": (["verify", "lemma23", "--depth", "2"],
                  "f0fa0dccbfd75fb249125a93388be3f5aef124da44d898f80d52b9cef6014a4c"),
    "lemma31": (["verify", "lemma31"],
                "64ab1e6afeb1286590c881fbace2b53c8d76e1803fbd234b75eee4c52a56e9d6"),
    "coreflect4": (["verify", "coreflect", "--states", "4"],
                   "34d38c749709f909947e60aee5e37dd077bbead4ca48f571a64d6424c6f7ed25"),
    "lemma32": (["verify", "lemma32"],
                "0c7846f1d5c891bce20848f34c74ca3496292ad287cf818f596c37d4b6c7487a"),
    # the one report that runs injectivity_report on stage 2
    "lemma32_d2": (["verify", "lemma32", "--depth", "2", "--max-size", "2"],
                   "4818981550ddab55cf457c4a42f901765600665b6eb86c2f233e453925ed1521"),
    "thm26": (["verify", "thm26"],
              "d9963e8dbb0b0ed877ae2c2e439c653cde1891f37754bba46e5bb47f80665a17"),
    "lemma24": (["verify", "lemma24"],
                "fd33404ce44a15e6607eabcfc2149ab151c8fc9fc06f2103d0337f527b3fb3ba"),
    "dot2": (["hierarchy", "export", "--format", "dot", "--depth", "2"],
             "b6386a035b2ad1831c3d3dd0c0eb8c407a039628d6b93d2179818d77991067be"),
    "dot_antichain3_2": (["hierarchy", "export", "--format", "dot", "--base",
                          "antichain3", "--depth", "2"],
                         "226be24ac9c9a7c3a9f106f312f597e7ede9ab3a9866b87f7c261503581ad9ce"),
    "duality5": (["verify", "duality", "--max-size", "5"],
                 "3ceada280dd8abec77f562013740c55fc9d693ad0c4d483f00ad47471a260a76"),
    "coreflect4_3": (["verify", "coreflect", "--states", "4", "--max-size",
                      "3"],
                     "3197dec83a5f1a735529cfc57fc2e4c8668ee59c16d4de49ebcb2fcff9e7520f"),
    "bao4": (["verify", "bao", "--states", "4"],
             "cb893f7a4bc791c0d88c812baf8717e6b16a4506fd514dbe50bfa5d82dc3b6b9"),
}


@pytest.mark.parametrize("suite", list(REPORT_DIGESTS))
def test_coreflect_report_golden(suite, capsys):
    argv, digest = REPORT_DIGESTS[suite]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# whole reports over the depth-3 towers (top stages of 16,739 and 16,740
# elements), run in a child process under a 1 GB address-space cap: the
# order queries of every check must stay within it
DEEP_TOWER_DIGESTS = {
    "lemma23": "b0e057b325f5ad85d3d640ea2e3fc2744b76eb05f286c4760a8ad4ae9b98f9f1",
    "lemma24": "90ede6af525b8442ba4c0012792f10ade851bf78bd552fdfc921df014b9046a3",
}


def run_capped(argv, cap, timeout):
    """Run the CLI in a child process under an address-space cap."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = os.path.dirname(os.path.dirname(finord.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "finord.cli", *argv],
                          capture_output=True, env=env, preexec_fn=limit,
                          timeout=timeout)


@pytest.mark.parametrize("suite", sorted(DEEP_TOWER_DIGESTS))
def test_deep_tower_verifies_under_memory_cap(suite):
    proc = run_capped(["verify", suite, "--depth", "3"], 1 << 30, 120)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert json.loads(proc.stdout)["violations"] == []
    assert hashlib.sha256(proc.stdout).hexdigest() == DEEP_TOWER_DIGESTS[suite]


def test_deep_stage_dot_export_under_memory_cap():
    # the Hasse edges of the 16,739-element stage are read off its rows
    proc = run_capped(["hierarchy", "export", "--format", "dot", "--base",
                       "antichain3", "--depth", "3"], 1 << 30, 60)
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "245b6d5010f8ed5e39266b438abe966e37c2cea83a43de29649f3c741680af3f")


# each of these towers has more than the default 200,000 candidate
# antichains at stage 4; the level budget must stop the walk before their
# masks are kept, so the exit-2 report comes within a 256 MB cap.  The
# kernel stops counting at the limit plus one, so `used` is a lower bound,
# and the message says so
@pytest.mark.parametrize("argv,message", [
    (["verify", "thm26", "--depth", "4"],
     "doubleton tower exceeded budget (used is a lower bound)"),
    (["verify", "lemma23", "--depth", "4"],
     "level budget exhausted (used is a lower bound)"),
    (["verify", "lemma24", "--depth", "5"],
     "level budget exhausted (used is a lower bound)"),
    (["obstruct", "--all-posets", "3", "--depth", "5"],
     "level budget exhausted (used is a lower bound)"),
], ids=["thm26", "lemma23", "lemma24", "obstruct"])
def test_stage_four_budget_exit_under_memory_cap(argv, message):
    proc = run_capped(argv, 256 << 20, 60)
    assert proc.returncode == 2, proc.stderr.decode()[-500:]
    assert proc.stderr == b""
    assert json.loads(proc.stdout)["error"] == {
        "message": message, "stage": 4, "used": 200002, "budget": 200000}


# digests of whole reports whose --max-size leaves the enumerated family
# empty, as produced when each suite looped over the sizes itself
EMPTY_FAMILY_DIGESTS = {
    ("lemma31", "0"): "d2174d799c7fe90f7c31f55a9b1d77a47df44c8b39c0e36d2a3f506f1bd6748a",
    ("lemma31", "-1"): "20892d7e39989504a33f68431a096445f61d6e6a0e1c7bc2e4106ed8b89f4bde",
    ("lemma32", "0"): "3fc38ec23a39d804d1383646e09efe021f48ff945e03962bbe6ff8a1df29811b",
    ("lemma32", "-1"): "daee690c6bfd4e2627755724dc112a02b2993321851fe7baad9e5656d5affb08",
    ("duality", "0"): "45bf854db2903ae4939f8956b781bff53095fe4b797933522a863f4b4d3713e6",
    ("duality", "-1"): "b3cfd318f03ddeeceffc576bd3f95c5b428e798bf35ac196b0982aa97f849fb8",
    ("coreflect", "0"): "b170d4a46d10c088d0dc32376315f375d91aa7414a3796bbff8ed7878409151b",
    ("coreflect", "-1"): "9f3f607873b7b2b72ab6208b8d9b0488315cbe1025d4ef9424c9c8816e431dc8",
}


@pytest.mark.parametrize("suite,max_size", list(EMPTY_FAMILY_DIGESTS))
def test_empty_family_reports_golden(suite, max_size, capsys):
    code, out, _ = run(["verify", suite, "--max-size", max_size], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        EMPTY_FAMILY_DIGESTS[suite, max_size])


# the same policy for --states: a non-positive bound enumerates no frame and
# exits 0 (bao still runs its sampled checks)
EMPTY_STATES_DIGESTS = {
    ("coreflect", "0"): "3c784ee0bbf6f55bea84dffaea9a0d4561bb1af6540d3143598e4d36388c6d8a",
    ("coreflect", "-1"): "943aa3d0b17171d0e9cf2aa13b4b8099325c330fee314151fe362c60619d55a8",
    ("bao", "0"): "295b1efd1460c66e20e706251ecf985d0214a83b9d1fe450ef156cbf54231d3b",
    ("bao", "-1"): "9abe1eed6c34036c4aa4283bab4f15ea900c38641a216497d1e411fb659520e1",
}


@pytest.mark.parametrize("suite,states", list(EMPTY_STATES_DIGESTS))
def test_empty_frame_family_reports_golden(suite, states, capsys):
    code, out, _ = run(["verify", suite, "--states", states], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        EMPTY_STATES_DIGESTS[suite, states])


# the same policy for --depth 0 in thm26: no growth measured, no violation
THM26_DEPTH_ZERO_DIGEST = (
    "9d3d806e115bf76f314f9ba84beccd257cf753a64a12244f197afeff1a5cbe10")


def test_thm26_depth_zero_reports_golden(capsys):
    code, out, _ = run(["verify", "thm26", "--depth", "0"], capsys)
    assert code == 0
    assert json.loads(out)["violations"] == []
    assert hashlib.sha256(out.encode()).hexdigest() == THM26_DEPTH_ZERO_DIGEST


def test_lemma23_depth_zero_names_the_bound(capsys):
    code, out, err = run(["verify", "lemma23", "--depth", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == ("finord: error: lemma23 needs --depth >= 1: its shifted "
                   "base lies in stage 1\n")


def test_obstruct_enumerates_each_size_once(monkeypatch, capsys):
    calls = []
    original = order.canonical_form

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(order, "canonical_form", counted)
    code, doc = run_json(["obstruct", "--all-posets", "5"], capsys)
    assert code == 0 and doc["posets"] == 87
    # one pass over sizes 2..5: one canonical form per generated candidate,
    # 2 + 6 + 22 + 104; the 38 candidates that a swap of twins in their
    # parent maps to an earlier downset get none (172 without that skip)
    assert len(calls) == 134


def test_bao_round_trip_catches_a_relabeling(monkeypatch, capsys):
    # a bao_L that swaps states 0 and 1 returns a frame isomorphic to the
    # original, which an isomorphism test lets through; the round trip
    # must return the frame itself
    original = kripke.bao_L

    def swapped(a):
        g = original(a)
        perm = [1, 0, *range(2, g.n)] if g.n > 1 else [0]
        succ = [0] * g.n
        for i, row in enumerate(g.succ):
            for j in range(g.n):
                if row >> j & 1:
                    succ[perm[i]] |= 1 << perm[j]
        return kripke.KripkeFrame(g.n, tuple(succ))

    monkeypatch.setattr(kripke, "bao_L", swapped)
    code, doc = run_json(["verify", "bao", "--states", "2"], capsys)
    expected = [["round_trip", 2, i]
                for i, f in enumerate(kripke.enumerate_frames(2))
                if swapped(kripke.complex_algebra(f)) != f]
    assert code == 1 and expected
    assert doc["violations"] == expected


def test_bao_round_trip_runs_on_four_state_frames(monkeypatch, capsys):
    # a bao_L that swaps states 0 and 1 of one 4-state frame only: the round
    # trip must be checked at the largest size too
    original = kripke.bao_L
    planted = kripke.KripkeFrame(4, (0b0010, 0, 0, 0))  # 0 R 1

    def swapped(a):
        g = original(a)
        return kripke.KripkeFrame(4, (0, 0b0001, 0, 0)) if g == planted else g

    monkeypatch.setattr(kripke, "bao_L", swapped)
    code, doc = run_json(["verify", "bao", "--states", "4"], capsys)
    index = kripke.enumerate_frames(4).index(planted)
    assert code == 1
    assert doc["violations"] == [["round_trip", 4, index]]


def test_duality_unit_catches_the_converse_order(monkeypatch, capsys):
    # a join_irreducibles that returns the converse order breaks the unit
    # on exactly the posets that are not self-dual
    original = heyting.join_irreducibles

    def converse(alg):
        ji, masks = original(alg)
        return order.FinitePreorder(ji.n, ji.down), masks

    monkeypatch.setattr(heyting, "join_irreducibles", converse)
    code, doc = run_json(["verify", "duality", "--max-size", "3"], capsys)
    expected = [["unit", i] for i, p in enumerate(order.enumerate_posets(3))
                if relation_iso(p.up, p.down) is None]
    assert code == 1 and expected
    assert [v for v in doc["violations"] if v[0] == "unit"] == expected


def test_duality_unit_runs_on_four_point_posets(monkeypatch, capsys):
    # a join_irreducibles that returns the converse order of one 4-point
    # poset only, one that is not self-dual: the unit must be checked at the
    # default config's largest size
    original = heyting.join_irreducibles
    planted = order.from_pairs(4, [(0, 1), (0, 2), (0, 3)])  # one bottom
    form = order.canonical_form(planted)

    def converse(alg):
        ji, masks = original(alg)
        if ji.n == 4 and order.canonical_form(ji) == form:
            ji = order.FinitePreorder(ji.n, ji.down)
        return ji, masks

    monkeypatch.setattr(heyting, "join_irreducibles", converse)
    code, doc = run_json(["verify", "duality"], capsys)
    index = [order.canonical_form(p)
             for p in order.enumerate_posets(4)].index(form)
    assert code == 1
    assert doc["violations"] == [["unit", index]]


def test_lemma31_checks_every_function_between_three_point_preorders(
        monkeypatch, capsys):
    # is_open_v3 disagrees on the identity of the 3-point chain only: the
    # exhaustive pass must reach it at the default config
    original = maps.is_open_v3
    chain = order.chain(3)

    def planted(f):
        wrong = f.dom.up == f.cod.up == chain.up and f.table == (0, 1, 2)
        return original(f) != wrong

    monkeypatch.setattr(maps, "is_open_v3", planted)
    code, doc = run_json(["verify", "lemma31"], capsys)
    leq = order.to_json(chain)["leq"]
    assert code == 1
    assert doc["violations"] == [["exhaustive", leq, leq, [0, 1, 2], 1, 1, 0]]


def test_lemma24_and_thm26_fan_stage_two(monkeypatch, capsys):
    # a fan that reports one comparable pair on the 21-element stage 2 of
    # a three-antichain tower only: both suites must fan stage 2 at their
    # default config (lemma24 fans stages 0..2 of the atoms' tower, thm26
    # stages 0..2 of the doubletons' tower, an isomorphic one)
    original = hierarchy.fan
    planted = []

    def faulty(a_ids, outside, u):
        rep = original(a_ids, outside, u)
        if len(set(a_ids)) == 21:
            p, q = rep.pair_ids[:2]
            rep.violations.append(("fan_comparable", p, q))
            planted.append([str(p), str(q)])
        return rep

    monkeypatch.setattr(hierarchy, "fan", faulty)
    code, doc = run_json(["verify", "lemma24"], capsys)
    (pair,) = planted
    assert code == 1
    assert doc["violations"] == [["fan", "2", "fan_comparable", *pair]]
    code, doc = run_json(["verify", "thm26"], capsys)
    assert code == 1 and len(planted) == 2
    assert doc["level_sizes"][2] == 21 and doc["violations"] == [["fans"]]


def test_lemma32_checks_four_point_posets(monkeypatch, capsys):
    # an injectivity_report that flags the first open map into each 4-point
    # poset: the default config must reach the largest size
    original = maps.injectivity_report
    planted = []

    def faulty(h, alpha, p):
        rep = original(h, alpha, p)
        if p.n == 4 and rep.open_maps:
            stage, _ = hierarchy.materialize(h, alpha)
            first = maps.enumerate_open_maps(stage, p)[0]
            rep.violations.append(first)
            planted.append(["injectivity", 4, list(first)])
        return rep

    monkeypatch.setattr(maps, "injectivity_report", faulty)
    code, doc = run_json(["verify", "lemma32"], capsys)
    assert code == 1 and planted
    assert doc["violations"] == planted


def test_lemma23_checks_stage_two(monkeypatch, capsys):
    # a stage check that reports one stale fresh element of stage 2 of the
    # three-antichain tower only: stale children are checked from stage 2
    # on, so the fault shows at the default depth 2 and not at depth 1
    original = hierarchy.verify_stage_properties
    planted = []

    def faulty(h):
        rep = original(h)
        if len(h.base) == 3 and len(h.levels) > 2:
            x = min(h.new_at(2))
            rep.violations.append(("stale_children", 2, x))
            planted.append(["antichain3", "stale_children", "2", str(x)])
        return rep

    monkeypatch.setattr(hierarchy, "verify_stage_properties", faulty)
    code, doc = run_json(["verify", "lemma23", "--depth", "1"], capsys)
    assert code == 0 and doc["violations"] == [] and not planted
    code, doc = run_json(["verify", "lemma23"], capsys)
    assert code == 1 and len(planted) == 1
    assert doc["violations"] == planted


def test_obstruct_writes_the_report_in_slices(monkeypatch):
    # no write of the 11 MB report encodes more than 1 MiB
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    argv, digest = REPORT_DIGESTS["obstruct6"]
    assert cli.main(argv) == 0
    assert len(writes) > 1
    assert max(len(text.encode()) for text in writes) <= 1 << 20
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == digest


def test_coreflect_suite_coreflects_each_frame_once(monkeypatch, capsys):
    calls = []
    original = kripke.coreflect

    def counting(f, *args, **kwargs):
        calls.append(f)
        return original(f, *args, **kwargs)

    monkeypatch.setattr(kripke, "coreflect", counting)
    code, doc = run_json(["verify", "coreflect", "--states", "3"], capsys)
    assert code == 0
    assert doc["frames"] == 530 and doc["preorders"] == 5
    assert len(calls) == 530
    assert len({(f.n, f.succ) for f in calls}) == 530


def test_coreflect_suite_builds_each_opposite_frame_once(monkeypatch, capsys):
    built = []

    class CountingFrame(kripke.KripkeFrame):
        def __post_init__(self):
            super().__post_init__()
            # frame 1 is the dataclass __init__, frame 2 its caller
            if sys._getframe(2).f_code.co_name == "opposite_frame":
                built.append(self)

    monkeypatch.setattr(kripke, "KripkeFrame", CountingFrame)
    code, doc = run_json(["verify", "coreflect", "--states", "3"], capsys)
    assert code == 0
    assert doc["frames"] == 530 and doc["preorders"] == 5
    # one per checked preorder: the frame route's target is read off each
    # frame's rows, not built from its coreflected preorder
    assert len(built) == 5


def test_coreflect_suite_walks_once_per_preorder(monkeypatch, capsys):
    # no per-pair search: one enumerate_into walk per preorder, into every
    # frame, and every table a frame gets goes through the escape check and
    # both routes, each a `kernels.is_open` call: the open route's on the
    # coreflected preorder's own down rows, the frame route's on the
    # frame's restricted rows.  The sweep coreflects each frame just before
    # it checks it
    walks, forbidden, escapes, routes = [], [], [], Counter()
    into = kernels.enumerate_into
    mask = kernels.mask
    coreflect, is_open = kripke.coreflect, kernels.is_open
    cors = []

    def walk(p_down, p_up, codomains):
        out = into(p_down, p_up, codomains)
        walks.append((len(p_down), len(codomains), out))
        return out

    def forbid(*args, **kwargs):
        forbidden.append(args)
        raise AssertionError("per-pair search on the coreflect path")

    def escape(ids):
        if sys._getframe(1).f_code.co_name == "verify_coreflections":
            escapes.append(ids)
        return mask(ids)

    def recording(f):
        cors.append(coreflect(f))
        return cors[-1]

    def route(table, rows, cod_rows):
        if sys._getframe(1).f_code.co_name == "verify_coreflections":
            open_route = cod_rows is cors[-1].preorder.down
            routes["open" if open_route else "frame"] += 1
        return is_open(table, rows, cod_rows)

    monkeypatch.setattr(kernels, "enumerate_into", walk)
    monkeypatch.setattr(kernels, "enumerate_maps", forbid)
    monkeypatch.setattr(kripke, "pmorphisms", forbid)
    monkeypatch.setattr(kernels, "mask", escape)
    monkeypatch.setattr(kripke, "coreflect", recording)
    monkeypatch.setattr(kernels, "is_open", route)
    code, doc = run_json(["verify", "coreflect", "--states", "3"], capsys)
    assert code == 0 and not forbidden
    assert doc["frames"] == 530 and doc["checks"] == 1735
    assert sorted((n_p, n) for n_p, n, _ in walks) == sorted(
        (p.n, 530) for p in order.enumerate_preorders(2))
    found = sum(len(tables) for *_, out in walks for tables in out)
    assert found == len(escapes) == 1205
    # every p-morphism from a preorder lands in the coreflection
    assert routes == {"open": 1205, "frame": 1205}


def test_coreflect_suite_reports_a_fault_planted_in_one_frame(
        monkeypatch, capsys):
    # the frame route is wrong for one 3-state frame only, whose
    # coreflection drops its middle state: the run must report exactly that
    # frame's violations, at its own index, so batching the searches still
    # checks and attributes every frame.  The sweep coreflects each frame
    # just before it checks it, so the last coreflected frame is the one
    # under check; its frame route is the `kernels.is_open` call that does
    # not read the coreflected preorder's own down rows
    frames = [f for n in (1, 2, 3) for f in kripke.enumerate_frames(n)]
    target = kripke.KripkeFrame(3, (0b001, 0b101, 0b100))
    index = frames.index(target)
    cor = kripke.coreflect(target)
    expected = []
    for p in order.enumerate_preorders(2):
        frame_p = kripke.opposite_frame(p)
        inside = [t for t in iproduct(range(3), repeat=p.n)
                  if kripke.is_pmorphism(t, frame_p, target)
                  and not kernels.mask(t) & ~cor.member_mask]
        if inside:
            expected.append(["universal", index, order.to_json(p)["leq"],
                             [["route_disagreement", str(t)] for t in inside]])
    assert len(expected) == 5
    current = []
    coreflect, is_open = kripke.coreflect, kernels.is_open

    def recording(f):
        current[:] = [f, coreflect(f)]
        return current[1]

    def planted(table, rows, cod_rows):
        wrong = (sys._getframe(1).f_code.co_name == "verify_coreflections"
                 and current[0] == target
                 and cod_rows is not current[1].preorder.down)
        return is_open(table, rows, cod_rows) != wrong

    monkeypatch.setattr(kripke, "coreflect", recording)
    monkeypatch.setattr(kernels, "is_open", planted)
    code, doc = run_json(["verify", "coreflect"], capsys)
    assert code == 1
    assert doc["violations"] == expected


def test_coreflect_suite_builds_subframes_only_where_a_map_lands(
        monkeypatch, capsys):
    # 199 of the 530 frames on up to 3 states have a p-morphism from some
    # preorder on up to 2 points: the sweep restricts the rows of exactly
    # those, while it coreflects the frame just before it checks it, and
    # wraps no map in a PointMap and no rows in a KripkeFrame
    frames = [f for n in (1, 2, 3) for f in kripke.enumerate_frames(n)]
    preorders = order.enumerate_preorders(2)
    with_maps = [(f.n, f.succ) for f in frames if any(
        kripke.pmorphisms(kripke.opposite_frame(p), f) for p in preorders)]
    assert len(with_maps) == 199
    current, restricted, built = [], [], []
    coreflect, restrict = kripke.coreflect, kernels.restrict

    def recording(f):
        current[:] = [f]
        return coreflect(f)

    def restricting(rows, members):
        if sys._getframe(1).f_code.co_name == "verify_coreflections":
            restricted.append((current[0].n, current[0].succ))
        return restrict(rows, members)

    def counting(cls):
        class Counting(cls):
            def __post_init__(self):
                super().__post_init__()
                # frame 1 is the dataclass __init__, frame 2 its caller
                if sys._getframe(2).f_code.co_name == "verify_coreflections":
                    built.append(self)
        return Counting

    monkeypatch.setattr(kripke, "coreflect", recording)
    monkeypatch.setattr(kernels, "restrict", restricting)
    monkeypatch.setattr(kripke, "KripkeFrame", counting(kripke.KripkeFrame))
    monkeypatch.setattr(maps, "PointMap", counting(maps.PointMap))
    code, doc = run_json(["verify", "coreflect", "--states", "3"], capsys)
    assert code == 0 and doc["checks"] == 1735
    assert restricted == with_maps
    assert built == []


def test_coreflect_suite_reports_a_fault_in_a_frame_with_no_map(
        monkeypatch, capsys):
    # the complete relation on 3 states is its own coreflection, and no
    # preorder on up to 2 points maps into it; a coreflect that drops its
    # last state must still be caught by the fixpoint check, at its index
    frames = [f for n in (1, 2, 3) for f in kripke.enumerate_frames(n)]
    target = kripke.KripkeFrame(3, (0b111,) * 3)
    index = frames.index(target)
    assert kripke.coreflect(target).member_mask == 0b111
    assert not any(kripke.pmorphisms(kripke.opposite_frame(p), target)
                   for p in order.enumerate_preorders(2))
    coreflect = kripke.coreflect

    def planted(f):
        cor = coreflect(f)
        if f != target:
            return cor
        return kripke.Coreflection(cor.members[:2], order.chain(1),
                                   cor.member_mask & 0b011)

    monkeypatch.setattr(kripke, "coreflect", planted)
    code, doc = run_json(["verify", "coreflect", "--states", "3"], capsys)
    assert code == 1
    assert doc["violations"] == [["fixpoint_mismatch", index]]


def test_obstruct_timing_fills_every_elapsed(capsys):
    _, doc = run_json(["obstruct", "--all-posets", "2", "--timing"], capsys)
    assert doc["certificates"]
    for cert in doc["certificates"]:
        assert isinstance(cert["elapsed"], float)
        assert cert["elapsed"] >= 0
    _, doc = run_json(["obstruct", "--all-posets", "2"], capsys)
    assert all(cert["elapsed"] is None for cert in doc["certificates"])


def test_obstruct_timing_gives_each_certificate_its_own_elapsed(
        monkeypatch, capsys):
    # a clock whose k-th reading advances it by k / 64 s: main reads it
    # first, the sweep second, and certificate j's reading is the (j + 3)-th,
    # so its elapsed is (j + 3) / 64 s, different for every certificate
    # although many share a verdict
    readings = []

    def clock():
        readings.append(len(readings) + 1)
        return sum(readings) / 64

    monkeypatch.setattr(cli.time, "perf_counter", clock)
    _, doc = run_json(["obstruct", "--all-posets", "3", "--timing"], capsys)
    certificates = doc["certificates"]
    assert len({c["certificate_kind"] for c in certificates}) == 1
    assert len({c["candidates_examined"] for c in certificates}) < len(
        certificates)
    assert [c["elapsed"] for c in certificates] == [
        (j + 3) / 64 for j in range(len(certificates))]
    assert len(readings) == len(certificates) + 3
    assert doc["elapsed"] == (sum(readings) - 1) / 64


def test_obstruct_timing_report_matches_the_stdlib(capsys):
    # the floats the certificate texts carry, as the stdlib writes them
    _, out, _ = run(["obstruct", "--all-posets", "2", "--timing"], capsys)
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ["obstruct", "--all-posets", "7"],
    ["obstruct", "--all-posets", "2", "--budget", "3"],
    ["verify", "lemma23", "--depth", "-1"],
    ["verify", "lemma31", "--max-size", "5"],
    ["verify", "lemma31", "--max-size", "4"],
    ["verify", "duality", "--max-size", "7"],
    ["hierarchy", "build", "--budget", "1"],
    ["verify", "thm26", "--budget", "2"],
    ["hierarchy", "build", "--base", "file:{unknown_label}"],
    ["hierarchy", "build", "--base", "file:{atoms_not_list}"],
    ["hierarchy", "build", "--base", "file:{base_is_string}"],
    ["hierarchy", "build", "--base", "file:{leq_triple}"],
    ["hierarchy", "build", "--base", "file:{not_utf8}"],
    ["obstruct", "--poset", "file:{not_utf8}"],
    ["obstruct", "--poset", "file:{leq_not_string}"],
    ["obstruct", "--poset", "file:{size_is_bool}"],
    ["obstruct", "--poset", "file:{nested}"],
    ["hierarchy", "build", "--base", "file:{nested}"],
])
def test_config_errors_exit_one_with_a_line(argv, tmp_path, capsys):
    files = {
        "unknown_label": {"atoms": ["p", "q"], "leq": [["p", "nope"]],
                          "base": ["p", "q"]},
        "atoms_not_list": {"atoms": 5, "leq": [], "base": []},
        "base_is_string": {"atoms": ["a", "b"], "leq": [], "base": "ab"},
        "leq_triple": {"atoms": ["p", "q"], "leq": [["p", "q", "p"]],
                       "base": ["p"]},
        "leq_not_string": {"size": 1, "leq": 5},
        "size_is_bool": {"size": True, "leq": "1"},
    }
    paths = {}
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    paths["not_utf8"] = tmp_path / "not_utf8.json"
    paths["not_utf8"].write_bytes(b'{"size": 1, "leq": "\xff"}')
    # nested past the JSON decoder's recursion limit
    paths["nested"] = tmp_path / "nested.json"
    paths["nested"].write_text("[" * 200_000)
    argv = [arg.format(**paths) for arg in argv]
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("finord: error: ") and err.count("\n") == 1


def test_budget_exhaustion_exits_two(capsys):
    code, doc = run_json(
        ["hierarchy", "build", "--base", "antichain3", "--depth", "2",
         "--budget", "10"], capsys)
    assert code == 2
    assert doc["truncated_at"] == 2
    assert doc["levels"] == [3, 7]


def test_budget_error_in_verify_exits_two(capsys):
    code, doc = run_json(
        ["verify", "thm26", "--budget", "10"], capsys)
    assert code == 2
    # the kernel stops counting stage 2's antichains at budget + 2, a lower
    # bound on its 21 elements
    assert doc["error"] == {
        "message": "doubleton tower exceeded budget (used is a lower bound)",
        "stage": 2, "used": 12, "budget": 10}


@pytest.mark.parametrize("argv,message,used", [
    (["verify", "thm26", "--budget", "6"], "doubleton tower exceeded budget",
     7),
    (["verify", "lemma23", "--depth", "1", "--budget", "7"],
     "level budget exhausted", 8),
], ids=["thm26", "lemma23"])
def test_exact_budget_usage_keeps_its_message(argv, message, used, capsys):
    # stage 1's four fresh sets fit the antichain count but not the level:
    # `used` is the exact size of stage 1, so no bound is claimed
    code, doc = run_json(argv, capsys)
    assert code == 2
    assert doc["error"] == {"message": message, "stage": 1, "used": used,
                            "budget": int(argv[-1])}


def test_budget_error_reports_usage(capsys, monkeypatch):
    # the relation count of the largest size against its budget, checked
    # before any frame of a smaller size is built
    built = []
    check = kripke.KripkeFrame.__post_init__
    monkeypatch.setattr(kripke.KripkeFrame, "__post_init__",
                        lambda f: built.append(f) or check(f))
    for suite in ("bao", "coreflect"):
        code, doc = run_json(["verify", suite, "--states", "5"], capsys)
        assert code == 2
        assert doc["error"] == {"message": "too many relations",
                                "stage": None, "used": 33554432,
                                "budget": 1048576}
        assert built == [], suite


def test_timing_fills_elapsed(capsys):
    _, doc = run_json(
        ["hierarchy", "stats", "--depth", "0", "--timing"], capsys)
    assert isinstance(doc["elapsed"], float)
    assert doc["elapsed"] >= 0


def test_out_duplicates_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    _, out, _ = run(
        ["verify", "lemma24", "--depth", "1", "--out", str(target)], capsys)
    assert target.read_text() == out


# --out naming a directory, and --out under a missing directory
@pytest.mark.parametrize("argv, target", [
    (["hierarchy", "build"], "."),
    (["verify", "lemma24", "--depth", "1"], "missing/report.json"),
])
def test_unwritable_out_is_a_one_line_error(argv, target, tmp_path, capsys):
    code, out, err = run([*argv, "--out", str(tmp_path / target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("finord: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("code", [errno.EPIPE, errno.ENOSPC],
                         ids=["broken_pipe", "no_space"])
@pytest.mark.parametrize("failing", ["write", "flush"])
def test_stdout_errors_are_a_one_line_error(code, failing, tmp_path,
                                            monkeypatch, capsys):
    # a reader that has gone or a full disk, on a write or on the last
    # flush: one line and exit 1.  After a broken pipe stdout's descriptor
    # points at the null device, so the flush at exit writes nothing
    target = (tmp_path / "stdout").open("wb")

    class Stdout:
        def raising(self, *args):
            raise OSError(code, os.strerror(code))

        def fileno(self):
            return target.fileno()

        write = flush = lambda self, *args: None

    setattr(Stdout, failing, Stdout.raising)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert cli.main(["hierarchy", "stats", "--depth", "0"]) == 1
    assert capsys.readouterr().err == (
        f"finord: error: [Errno {code}] {os.strerror(code)}\n")
    os.write(target.fileno(), b"written at exit")
    target.close()
    assert (tmp_path / "stdout").read_bytes() == (
        b"" if code == errno.EPIPE else b"written at exit")


def test_reports_are_byte_identical_across_runs(capsys):
    argv = ["obstruct", "--all-posets", "2"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "finord" in capsys.readouterr().out
