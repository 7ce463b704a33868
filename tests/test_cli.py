"""End-to-end command line checks through main(argv)."""

from __future__ import annotations

import importlib
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from _shared import one_profile_game, unnested_pair
from coalition_forge import cli, solver
from coalition_forge.catalog import build_game
from coalition_forge.cli import SEED_ENV, _make_config, main
from coalition_forge.gamefile import dumps, game_to_dict, profile_to_dict, save_game
from coalition_forge.games import TABLE, CoalitionGame, Mechanism, Strategy
from coalition_forge.partitions import enumerate_partitions
from coalition_forge.solver import MixedProfile


def run(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv: str):
    code, out, err = run(*argv, "--json")
    assert code == 0, err
    return json.loads(out)


def write_json(path, document) -> str:
    path.write_text(dumps(document) + "\n")
    return str(path)


class TestEnumerate:
    def test_count_only(self):
        code, out, _ = run("enumerate", "-n", "4", "--count-only")
        assert code == 0
        assert out == "15\n"
        code, out, _ = run("enumerate", "-n", "4", "-K", "2", "--count-only")
        assert code == 0
        assert out == "10\n"

    def test_json_listing(self):
        document = run_json("enumerate", "-n", "3")
        assert document["schema_version"] == 1
        assert document["command"] == "enumerate"
        assert (document["n"], document["K"], document["count"]) == (3, 3, 5)
        assert len(document["partitions"]) == 5
        assert document["partitions"][0] == [["1", "2", "3"]]
        assert document["partitions"][-1] == [["1"], ["2"], ["3"]]

    def test_human_listing(self):
        code, out, _ = run("enumerate", "-n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p(3,3) = 5"
        assert len(lines) == 6
        assert "{{1,2,3}}" in lines[1]

    def test_many_players(self):
        code, out, _ = run("enumerate", "-n", "1200", "-K", "1")
        assert code == 0
        singletons = ",".join(f"{{{i}}}" for i in range(1, 1201))
        assert out.splitlines() == ["p(1200,1) = 1", f"  0  {{{singletons}}}"]

    def test_a_family_too_large_to_hold_is_refused_but_counted(self):
        code, out, err = run("enumerate", "-n", "30", "-K", "2")
        assert (code, out) == (2, "")
        assert err == (
            "coalition-forge: error: the 606917269909048576 partitions of 30 players "
            f"with blocks of at most 2 exceed the dense limit of {2**27} code entries\n"
        )
        assert run("enumerate", "-n", "30", "-K", "2", "--count-only") == (0, "606917269909048576\n", "")

    def test_bad_sizes(self):
        assert run("enumerate", "-n", "0")[0] == 2
        assert run("enumerate", "-n", "4", "-K", "0")[0] == 2
        assert run("enumerate")[0] == 2


class TestSolve:
    def test_pure_dilemma(self):
        document = run_json("solve", "pd-standard")
        assert document["method"] == "pure-enum"
        assert document["K"] == 1
        (eq,) = document["equilibria"]
        assert eq["is_equilibrium"] is True
        assert eq["weights"] == [["0", "1"], ["0", "1"]]
        assert eq["support"] == [["H_a"], ["H_a"]]
        assert eq["expected_payoffs"] == ["-2", "-2"]
        assert eq["max_regret"] == "0"
        assert eq["partition_distribution"] == [
            {"partition": [["1"], ["2"]], "probability": "1"}
        ]

    def test_pure_with_pair_bonus(self):
        document = run_json("solve", "pd-extroverts")
        (eq,) = document["equilibria"]
        assert eq["support"] == [["H_t"], ["H_t"]]
        assert eq["expected_payoffs"] == ["-1", "-1"]

    def test_pure_without_equilibria(self, tmp_path):
        """Matching pennies: no pure profile survives, in either format."""
        sets = ((Strategy(0, "heads"), Strategy(0, "tails")),) * 2
        payoffs = {(a, b): (Fraction(1), Fraction(-1)) if a == b else (Fraction(-1), Fraction(1))
                   for a in range(2) for b in range(2)}
        path = tmp_path / "pennies.json"
        save_game(CoalitionGame(2, 1, enumerate_partitions(2, 1), sets, Mechanism(), payoffs), path)
        assert run_json("solve", str(path), "--method", "pure")["equilibria"] == []
        code, out, _ = run("solve", str(path), "--method", "pure")
        assert code == 0
        assert out.endswith("\n\nno equilibria found\n")

    def test_parameter_override(self):
        document = run_json("solve", "pd-extroverts", "--param", "eps=2")
        assert document["parameters"] == {"eps": "2"}
        (eq,) = document["equilibria"]
        assert eq["expected_payoffs"] == ["0", "0"]

    def test_support_method_on_partner_game(self):
        document = run_json("solve", "bos", "--method", "support")
        assert document["method"] == "support-enum"
        eqs = document["equilibria"]
        assert len(eqs) == 6
        assert all(eq["is_equilibrium"] for eq in eqs)
        together = [
            eq
            for eq in eqs
            if eq["support"] == [["B_t", "O_t"], ["B_t", "O_t"]]
        ]
        (mixed,) = together
        assert mixed["weights"] == [
            ["0", "0", "2/3", "1/3"],
            ["0", "0", "1/3", "2/3"],
        ]
        assert mixed["expected_payoffs"] == ["23/30", "23/30"]

    def test_iterative_converges_on_dilemma(self):
        document = run_json("solve", "pd-extended", "--method", "iterative")
        (eq,) = document["equilibria"]
        assert eq["method"] == "iterative"
        assert eq["is_equilibrium"] is True
        assert eq["iterations"] >= 1
        assert "converged" not in document

    def test_iterative_run_that_does_not_converge(self):
        document = run_json("solve", "bos", "--method", "iterative")
        assert document["converged"] is False
        (equilibrium,) = document["equilibria"]
        assert (equilibrium["is_equilibrium"], equilibrium["iterations"]) == (False, 100_000)

    def test_truncated_support_search(self, tmp_path):
        # 2 structures x 4 actions: 8 strategies each, above the default cap of 6.
        alone, together = [["1"], ["2"]], [["1", "2"]]
        strategies = [{"partition": p, "action": a} for p in (alone, together) for a in "abcd"]
        payoffs = {
            f"{i},{j}": [str((3 * i + 5 * j) % 7), str((5 * i + 2 * j) % 7)]
            for i in range(8)
            for j in range(8)
        }
        path = write_json(tmp_path / "eight.json", {
            "schema_version": 1,
            "players": ["1", "2"],
            "K": 2,
            "strategies": [strategies, strategies],
            "mechanism": "unanimity",
            "payoffs": payoffs,
        })
        document = run_json("solve", path, "--method", "support")
        assert document["truncated"] is True
        assert document["equilibria"]
        code, out, _ = run("solve", path, "--method", "support")
        assert code == 0
        assert out.endswith("\nnote: support search truncated by max_support cap\n")

    def test_iterative_tolerance(self):
        document = run_json("solve", "bos", "--method", "iterative", "--tolerance", "1e-3")
        (eq,) = document["equilibria"]
        assert (eq["is_equilibrium"], eq["iterations"]) == (True, 217)
        assert "converged" not in document
        code, out, err = run("solve", "bos", "--method", "iterative", "--tolerance", "0")
        assert (code, out) == (2, "")
        assert "tolerance must be positive, got 0.0" in err
        code, out, err = run("solve", "bos", "--method", "iterative", "--tolerance", "inf")
        assert (code, out) == (2, "")
        assert "tolerance must be finite, got inf" in err

    def test_more_players_than_einsum_axes_exit_2(self, tmp_path):
        names = tuple(f"p{i}" for i in range(53))
        path = write_json(tmp_path / "wide.json", game_to_dict(one_profile_game(53), names))
        code, out, err = run("solve", path, "--method", "iterative")
        assert (code, out) == (2, "")
        assert "contractions handle at most 52 players, game has 53" in err

    def test_payoffs_beyond_the_float_range_exit_2(self, tmp_path):
        huge = build_game("bos", eps=Fraction(10**400))
        path = write_json(tmp_path / "huge.json", game_to_dict(huge))
        code, out, err = run("solve", path, "--method", "iterative")
        assert (code, out) == (2, "")
        assert err == (
            "coalition-forge: error: a payoff lies beyond the float range, "
            "so float profiles cannot read this game; exact profiles can\n"
        )
        document = run_json("solve", path, "--method", "support")
        assert document["equilibria"]

    def test_human_grid(self):
        code, out, _ = run("solve", "bos")
        assert code == 0
        assert out.splitlines()[0] == "bos: 2 players, K=2, method pure-enum"
        assert "B_a" in out and "O_t" in out
        assert "{{Ann,Bob}}" in out
        assert "{{Ann},{Bob}}" in out

    def test_repeat_runs_are_byte_identical(self):
        first = run("solve", "bos", "--method", "support", "--json")
        second = run("solve", "bos", "--method", "support", "--json")
        assert first == second
        a = run("solve", "bos", "--method", "iterative", "--seed", "5", "--json")
        b = run("solve", "bos", "--method", "iterative", "--seed", "5", "--json")
        assert a == b

    def test_file_source_matches_catalog(self, tmp_path):
        game = build_game("pd-extroverts")
        path = write_json(tmp_path / "game.json", game_to_dict(game, ("1", "2")))
        from_file = run_json("solve", path)
        from_catalog = run_json("solve", "pd-extroverts")
        assert from_file["equilibria"] == from_catalog["equilibria"]

    def test_listing_caps_at_24(self, tmp_path):
        strategies = [{"partition": [["1"], ["2"]], "action": str(k)} for k in range(5)]
        flat = {
            "schema_version": 1,
            "players": ["1", "2"],
            "K": 1,
            "strategies": [strategies, strategies],
            "mechanism": "unanimity",
            "payoffs": {f"{i},{j}": ["0", "0"] for i in range(5) for j in range(5)},
        }
        path = write_json(tmp_path / "flat.json", flat)
        code, out, _ = run("solve", path)
        assert code == 0
        assert "... and 1 more (25 total)" in out
        assert len(run_json("solve", path)["equilibria"]) == 25

    def test_source_errors(self, tmp_path):
        assert run("solve", "chicken")[0] == 2
        game = build_game("pd-standard")
        document = game_to_dict(game, ("1", "2"))
        document["bogus"] = True
        assert run("solve", write_json(tmp_path / "extra.json", document))[0] == 2
        document = game_to_dict(game, ("1", "2"))
        del document["payoffs"]["1,1"]
        assert run("solve", write_json(tmp_path / "gap.json", document))[0] == 3
        bad = tmp_path / "noise.json"
        bad.write_text("not json {")
        assert run("solve", str(bad))[0] == 2
        path = write_json(tmp_path / "ok.json", game_to_dict(game, ("1", "2")))
        assert run("solve", path, "--param", "eps=1")[0] == 2
        assert run("solve", "pd-extroverts", "--param", "eps")[0] == 2


@pytest.mark.parametrize(
    "content", [b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe{}"], ids=["deep", "undecodable"]
)
def test_unparsable_files_exit_2_naming_the_file(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    for argv in (("solve", str(path)), ("analyze", "bos", "--profile", str(path))):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert str(path) in err and "Traceback" not in err


class TestAnalyze:
    def test_default_route_picks_the_pure_outcome(self):
        document = run_json("analyze", "pd-standard")
        assert document["verification"]["passed"] is True
        assert document["verification"]["expected"] == ["-2", "-2"]
        assert document["verification"]["regrets"] == ["0", "0"]
        assert document["stochastic"] is False

    def test_default_route_falls_back_to_the_support_lane(self, tmp_path):
        # Matching pennies at cap 2: player 1 wins when the actions match,
        # player 2 when they differ, wherever either eats. No pure equilibrium.
        alone, together = [["1"], ["2"]], [["1", "2"]]
        strategies = [{"partition": p, "action": a} for p in (alone, together) for a in "HT"]
        payoffs = {
            f"{i},{j}": ["1", "-1"] if i % 2 == j % 2 else ["-1", "1"]
            for i in range(4)
            for j in range(4)
        }
        path = write_json(tmp_path / "pennies.json", {
            "schema_version": 1,
            "players": ["1", "2"],
            "K": 2,
            "strategies": [strategies, strategies],
            "mechanism": "unanimity",
            "payoffs": payoffs,
        })
        document = run_json("analyze", path)
        assert document["equilibrium"]["method"] == "support-enum"
        assert document["equilibrium"]["weights"] == [["1/2", "1/2", "0", "0"]] * 2
        assert document["verification"]["passed"] is True
        assert run_json("stability", path, "--K0", "1")["K_star"] == 2

    def test_cooperation_flags(self):
        document = run_json("analyze", "pd-extroverts", "--coalition", "1,2")
        assert document["cooperation"] == {
            "coalition": ["1", "2"],
            "ex_ante": True,
            "ex_post": True,
            "complete": True,
        }
        document = run_json("analyze", "pd-standard", "--coalition", "1,2")
        assert document["cooperation"]["complete"] is False

    def test_lunch_profile_file(self, tmp_path):
        game = build_game("lunch")
        mixed = self.rotation_profile(game)
        path = write_json(tmp_path / "profile.json", profile_to_dict(mixed))
        document = run_json(
            "analyze", "lunch", "--profile", path, "--coalition", "A,B"
        )
        assert document["verification"]["passed"] is True
        assert document["verification"]["expected"] == ["137/27"] * 4
        assert document["stochastic"] is True
        assert document["cooperation"]["complete"] is False
        eq = document["equilibrium"]
        assert eq["method"] == "supplied"
        dist = {
            tuple(tuple(b) for b in entry["partition"]): entry["probability"]
            for entry in eq["partition_distribution"]
        }
        assert dist[(("A",), ("B",), ("C",), ("D",))] == "10/27"
        assert dist[(("A", "B"), ("C",), ("D",))] == "8/81"
        assert dist[(("A", "B"), ("C", "D"))] == "1/81"

    @staticmethod
    def rotation_profile(game):
        third = Fraction(1, 3)
        rows = []
        for player in range(4):
            row = [Fraction(0)] * len(game.strategy_sets[player])
            for k, strategy in enumerate(game.strategy_sets[player]):
                structure = game.family[strategy.desired_partition]
                own = structure.block_of(player)
                pairs = sum(1 for b in structure.blocks if b.size == 2)
                if own.size == 2 and pairs == 1 and structure.max_block_size == 2:
                    row[k] = third
            rows.append(tuple(row))
        return MixedProfile(tuple(rows))

    def test_non_equilibrium_profile_is_reported(self, tmp_path):
        game = build_game("pd-standard")
        uniform = MixedProfile(
            ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))
        )
        path = write_json(tmp_path / "uniform.json", profile_to_dict(uniform))
        document = run_json("analyze", "pd-standard", "--profile", path)
        assert document["verification"]["passed"] is False
        assert document["verification"]["max_regret"] == "3/2"
        assert "stochastic" not in document
        code, out, _ = run("analyze", "pd-standard", "--profile", path)
        assert code == 0
        assert "not an equilibrium" in out

    def test_profile_errors(self, tmp_path):
        game = build_game("pd-standard")
        short = {"schema_version": 1, "weights": [["1"], ["1", "0"]]}
        path = write_json(tmp_path / "short.json", short)
        assert run("analyze", "pd-standard", "--profile", path)[0] == 2
        unbalanced = {"schema_version": 1, "weights": [["1", "1"], ["1", "0"]]}
        path = write_json(tmp_path / "unbalanced.json", unbalanced)
        assert run("analyze", "pd-standard", "--profile", path)[0] == 2
        assert run("analyze", "pd-standard", "--coalition", "1,9")[0] == 2

    def test_unknown_coalition_member_exits_2_for_any_profile(self, tmp_path):
        uniform = MixedProfile(((Fraction(1, 4),) * 4,) * 2)
        path = write_json(tmp_path / "uniform.json", profile_to_dict(uniform))
        assert run_json("analyze", "bos", "--profile", path)["verification"]["passed"] is False
        for supplied in ((), ("--profile", path)):
            code, out, err = run("analyze", "bos", *supplied, "--coalition", "Zed")
            assert (code, out) == (2, "")
            assert "unknown player 'Zed'" in err
        # Cooperation is still reported only for equilibria.
        document = run_json("analyze", "bos", "--profile", path, "--coalition", "Ann,Bob")
        assert "cooperation" not in document

    def test_unknown_coalition_member_echo_is_bounded(self, tmp_path):
        code, _, err = run("analyze", "pd-extroverts", "--coalition", "Zed")
        assert code == 2
        assert err.endswith("error: unknown player 'Zed'; players are: 1, 2\n")
        path = write_json(tmp_path / "long.json", game_to_dict(build_game("pd-extended"), (LONG, "2")))
        for member in ("Zed", "z" * len(LONG)):
            code, out, err = run("analyze", path, "--coalition", member)
            assert (code, out) == (2, "")
            assert "; players are: xxxxxxxxxxxx...xxxxxxxxxxxxx, 2\n" in err
            assert len(err.encode()) < 1000
        assert "unknown player 'zzzzzzzzzzzz...zzzzzzzzzzzzz';" in err

    def test_empty_coalition_is_refused(self):
        code, out, err = run("analyze", "bos", "--coalition", "")
        assert (code, out) == (2, "")
        assert err.endswith("error: unknown player ''; players are: Ann, Bob\n")

    def test_repeated_coalition_member_exits_2(self):
        code, out, err = run("analyze", "pd-extroverts", "--coalition", "1,1")
        assert (code, out) == (2, "")
        assert err.endswith("error: coalition members must be distinct\n")

    def test_no_pure_equilibrium_on_three_players_falls_back_to_fictitious_play(self, tmp_path):
        path = write_json(tmp_path / "cycle.json", cycle_document())
        for document in (run_json("analyze", path), run_json("stability", path, "--K0", "1")):
            equilibrium = document["equilibrium"]
            assert (equilibrium["method"], equilibrium["iterations"]) == ("iterative", 1)
            assert equilibrium["is_equilibrium"] is True
        assert document["K_star"] == 1
        assert document["checks"] == [{"K": 1, "domain_ok": True, "passed": True, "payoff_ok": True}]


def cycle_document():
    """Three players at cap 1 choosing H or T: 1 matches 2, 2 matches 3, and 3 mismatches 1.

    No pure profile pays everyone their best reply, and the uniform
    start is already an equilibrium.
    """
    strategies = [{"partition": [["1"], ["2"], ["3"]], "action": a} for a in "HT"]
    payoffs = {
        f"{i},{j},{k}": [str(int(i == j)), str(int(j == k)), str(int(k != i))]
        for i in range(2)
        for j in range(2)
        for k in range(2)
    }
    return {
        "schema_version": 1,
        "players": ["1", "2", "3"],
        "K": 1,
        "strategies": [strategies] * 3,
        "mechanism": "unanimity",
        "payoffs": payoffs,
    }


class TestStability:
    def test_dilemma_family(self):
        document = run_json("stability", "pd-extended", "--K0", "1")
        assert document["K0"] == 1
        assert document["K_star"] == 2
        assert [c["K"] for c in document["checks"]] == [1, 2]
        assert all(c["passed"] for c in document["checks"])
        assert document["diagnostics"] == []

    def test_hunt_diagnostic(self):
        document = run_json("stability", "stag-hare", "--K0", "1")
        assert document["K_star"] == 2
        (diag,) = document["diagnostics"]
        assert diag == {"K": 2, "profile": [3, 3], "payoffs": ["100", "100"]}
        code, out, _ = run("stability", "stag-hare", "--K0", "1")
        assert code == 0
        assert "K* = 2" in out
        assert "diagnostic at K=2" in out
        assert "(100, 100)" in out

    def test_file_family(self, tmp_path):
        small = write_json(
            tmp_path / "k1.json", game_to_dict(build_game("pd-standard"), ("1", "2"))
        )
        big = write_json(
            tmp_path / "k2.json", game_to_dict(build_game("pd-extended"), ("1", "2"))
        )
        document = run_json("stability", small, big, "--K0", "1")
        assert document["K_star"] == 2

    def test_file_family_without_a_restriction(self, tmp_path):
        small, big = (
            write_json(tmp_path / f"{name}.json", game_to_dict(g))
            for name, g in zip(("s1", "b2"), unnested_pair())
        )
        code, out, err = run("stability", small, big, "--K0", "1")
        assert (code, out) == (2, "")
        assert err.endswith("error: family is not nested between caps 1 and 2\n")

    def test_file_family_with_other_player_names(self, tmp_path):
        small = write_json(
            tmp_path / "k1.json", game_to_dict(build_game("pd-standard"), ("1", "2"))
        )
        big = write_json(
            tmp_path / "k2.json", game_to_dict(build_game("pd-extended"), ("Ann", "Bob"))
        )
        code, out, err = run("stability", small, big, "--K0", "1")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {big} names its players Ann, Bob, but {small} names them 1, 2\n")

    def test_usage_errors(self):
        assert run("stability", "pd-extended")[0] == 2
        assert run("stability", "pd-extended", "--K0", "3")[0] == 2

    def test_param_on_game_files_exits_2(self, tmp_path):
        path = write_json(tmp_path / "k1.json", game_to_dict(build_game("pd-standard")))
        code, out, err = run("stability", path, path, "--K0", "1", "--param", "eps=1")
        assert (code, out) == (2, "")
        assert err.endswith("error: --param only applies to catalog games\n")


LONG = "x" * 1_000_000


def _long_name_twice(document):
    document["players"][0] = LONG
    document["strategies"][0][0]["partition"] = [[LONG, LONG]]


# Each fault puts a huge value where a game file's error message echoes it.
HUGE_ECHOES = {
    "K": (lambda d: d.update(K=LONG), "K must be an integer in 1..2, got 'xxx"),
    "schema_version": (
        lambda d: d.update(schema_version=[list(range(1000))] * 100),
        "game document schema_version must be 1, got [[0, 1, 2, 3, 4, 5, ...], ",
    ),
    "mechanism": (
        lambda d: d.update(mechanism=LONG),
        'mechanism must be "unanimity" or an object with a table, got \'xxx',
    ),
    "payoff": (
        lambda d: d["payoffs"]["0,0"].__setitem__(0, LONG),
        "payoffs['0,0'][0] is not a rational: 'xxx",
    ),
    "unknown key": (lambda d: d.update({LONG: 1}), "game document has unknown keys: xxx"),
    "many unknown keys": (
        lambda d: d.update({f"k{i:06}": 1 for i in range(100_000)}),
        "game document has unknown keys: k000000, k000001, k000002, k000003, k000004, k000005, ...",
    ),
    "payoff key": (
        lambda d: d["payoffs"].update({"0," + LONG: ["0", "0"]}),
        "payoffs key '0,xxx",
    ),
    "player named twice": (_long_name_twice, "block 0 names player 'xxx"),
}


@pytest.mark.parametrize("fault", HUGE_ECHOES)
def test_game_file_errors_bound_what_they_echo(tmp_path, fault):
    """A huge value in a game file is echoed in a few hundred bytes at most."""
    change, message = HUGE_ECHOES[fault]
    document = game_to_dict(build_game("pd-standard"), ("1", "2"))
    change(document)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(document))
    code, out, err = run("solve", str(path))
    assert (code, out) == (2, "")
    assert message in err and len(err.encode()) < 1000


class TestTableFiles:
    """Game files whose mechanism is an explicit table, read by the commands."""

    @pytest.mark.parametrize("game_id", ["stag-hare", "bos", "pd-extended"])
    def test_table_copied_from_unanimity_gives_the_same_results(self, tmp_path, game_id):
        game = build_game(game_id)
        table = {p: game.realized_partition(p) for p in game.profiles()}
        copied = CoalitionGame(
            game.n_players, game.max_coalition, game.family, game.strategy_sets,
            Mechanism(TABLE, table), game.payoffs,
        )
        paths = {}
        for kind, source in (("unanimity", game), ("table", copied)):
            for cap in (1, 2):
                paths[kind, cap] = tmp_path / f"{kind}_K{cap}.json"
                save_game(source.restrict(cap), paths[kind, cap])
        assert "table" in json.loads(paths["table", 1].read_text())["mechanism"]

        def documents(kind):
            solved = [run_json("solve", str(paths[kind, cap])) for cap in (1, 2)]
            stable = run_json("stability", str(paths[kind, 1]), str(paths[kind, 2]), "--K0", "1")
            for document in (*solved, stable):
                document.pop("source")
            return solved, stable

        expected = documents("unanimity")
        assert expected[1]["K_star"] == 2
        assert documents("table") == expected


class TestCatalogCommand:
    def test_listing(self):
        code, out, _ = run("catalog")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert any(line.startswith("pd-standard") for line in lines)
        assert any(line.startswith("lunch") for line in lines)

    def test_detail_and_alias(self):
        document = run_json("catalog", "--id", "bos")
        assert document["id"] == "bos"
        assert document["parameters"] == {"eps": "1/10"}
        document = run_json("catalog", "--id", "pd")
        assert document["id"] == "pd-extended"
        assert run("catalog", "--id", "chicken")[0] == 2

    def test_detail_as_text(self):
        code, out, _ = run("catalog", "--id", "bos")
        assert code == 0
        assert out == (
            "bos: partner coordination with a togetherness bonus eps\n"
            "  players: Ann, Bob (2)\n"
            "  K: 2\n"
            "  parameters: eps=1/10\n"
        )

    def test_json_listing(self):
        document = run_json("catalog")
        ids = [entry["id"] for entry in document["entries"]]
        assert len(ids) == 8
        assert "stag-hare" in ids and "pd-mixed" in ids


class TestSeeds:
    def test_env_seed_reaches_the_config(self, monkeypatch):
        class Args:
            seed = None

        monkeypatch.setenv(SEED_ENV, "7")
        assert _make_config(Args()).rng_seed == 7
        Args.seed = 3
        assert _make_config(Args()).rng_seed == 3
        monkeypatch.delenv(SEED_ENV)
        Args.seed = None
        assert _make_config(Args()).rng_seed == 0

    def test_env_and_flag_agree_end_to_end(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "3")
        via_env = run("solve", "pd-extended", "--method", "iterative", "--json")
        monkeypatch.delenv(SEED_ENV)
        via_flag = run(
            "solve", "pd-extended", "--method", "iterative", "--seed", "3", "--json"
        )
        assert via_env == via_flag

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV, "many")
        assert run("solve", "pd-extended", "--method", "iterative")[0] == 2
        monkeypatch.setenv(SEED_ENV, "-1")
        assert run("solve", "pd-extended", "--method", "iterative")[0] == 2


class TestTopLevel:
    def test_help_and_usage(self):
        assert run("--help")[0] == 0
        assert run()[0] == 2
        assert run("solve", "pd-standard", "--format", "yaml")[0] == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coalition_forge.cli", "enumerate", "-n", "4", "--count-only"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "15\n"

    def test_console_script_target_runs(self, monkeypatch):
        # Python 3.10 has no tomllib, so the [project.scripts] line is read as text.
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
        target = re.search(r'^coalition-forge = "([\w.]+):(\w+)"$', pyproject, re.M)
        assert target, "no coalition-forge console script"
        entry = getattr(importlib.import_module(target[1]), target[2])
        expected = run("catalog")
        assert expected[0] == 0
        monkeypatch.setattr(sys, "argv", ["coalition-forge", "catalog"])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exited:
            entry()
        assert exited.value.code == 0
        assert (out.getvalue(), err.getvalue()) == expected[1:]


class TestOneRenderingPerRun:
    """Text runs build the entries they show and no document; JSON runs build no text."""

    @staticmethod
    def refuse(*_args, **_kwargs):
        raise AssertionError("built a rendering that is not printed")

    def test_text_runs_build_no_json(self, monkeypatch):
        argvs = [
            ("solve", "pd-extended"),
            ("solve", "bos", "--method", "support"),
            ("solve", "lunch", "--method", "pure"),
        ]
        expected = [run(*argv) for argv in argvs]
        built = []

        def counted(name):
            builder = getattr(cli, name)

            def count(game, names, labels, equilibria):
                built.append(len(equilibria))
                return builder(game, names, labels, equilibria)

            return count

        monkeypatch.setattr(cli, "_pure_entries", counted("_pure_entries"))
        monkeypatch.setattr(cli, "_result_entries", counted("_result_entries"))
        monkeypatch.setattr(cli, "dumps", self.refuse)
        for argv, before in zip(argvs, expected):
            assert before[0] == 0
            assert run(*argv) == before
        # lunch has 5,304 pure equilibria; the text shows 24 of them.
        assert built == [4, 6, 24]

    def test_json_runs_build_no_text(self, monkeypatch, tmp_path):
        profile = write_json(
            tmp_path / "eq.json",
            profile_to_dict(MixedProfile(((Fraction(0), Fraction(1)),) * 2)),
        )
        argvs = [
            ("solve", "pd-extended"),
            ("solve", "bos", "--method", "support"),
            ("analyze", "pd-extroverts", "--coalition", "1,2"),
            ("analyze", "pd-standard", "--profile", profile),
            ("stability", "stag-hare", "--K0", "1"),
        ]
        expected = [run(*argv, "--json") for argv in argvs]
        monkeypatch.setattr(cli, "_entry_lines", self.refuse)
        monkeypatch.setattr(cli, "_matrix_lines", self.refuse)
        for argv, before in zip(argvs, expected):
            assert before[0] == 0
            assert run(*argv, "--json") == before

    def test_pure_results_are_built_only_where_read(self, monkeypatch):
        # solve prints from the profile array; stability reads one result at its base cap.
        built = []
        pure_results = solver._pure_results

        def counted(game, rows, *args):
            built.append((game.max_coalition, len(rows)))
            return pure_results(game, rows, *args)

        monkeypatch.setattr(solver, "_pure_results", counted)
        assert run("solve", "lunch", "--method", "pure", "--json")[0] == 0
        assert built == []
        assert run("stability", "lunch", "--K0", "2", "--json")[0] == 0
        assert built == [(2, 1)]

    def test_supplied_profile_is_verified_once(self, monkeypatch, tmp_path):
        uniform = MixedProfile(((Fraction(1, 2), Fraction(1, 2)),) * 2)
        path = write_json(tmp_path / "uniform.json", profile_to_dict(uniform))
        calls = []
        verify = solver.verify_epsilon_nash

        def counted(*args, **kwargs):
            calls.append(args)
            return verify(*args, **kwargs)

        monkeypatch.setattr(solver, "verify_epsilon_nash", counted)
        code, out, _ = run("analyze", "pd-standard", "--profile", path)
        assert code == 0
        assert "verified: no (max regret 3/2)" in out
        assert len(calls) == 1
