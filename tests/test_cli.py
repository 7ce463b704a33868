"""End-to-end command line checks through main(argv)."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from _shared import unnested_pair
from coalition_forge import cli, solver
from coalition_forge.catalog import build_game
from coalition_forge.cli import SEED_ENV, _make_config, main
from coalition_forge.gamefile import dumps, game_to_dict, profile_to_dict, save_game
from coalition_forge.games import TABLE, CoalitionGame, Mechanism
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


class TestAnalyze:
    def test_default_route_picks_the_pure_outcome(self):
        document = run_json("analyze", "pd-standard")
        assert document["verification"]["passed"] is True
        assert document["verification"]["expected"] == ["-2", "-2"]
        assert document["verification"]["regrets"] == ["0", "0"]
        assert document["stochastic"] is False

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

    def test_usage_errors(self):
        assert run("stability", "pd-extended")[0] == 2
        assert run("stability", "pd-extended", "--K0", "3")[0] == 2


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


class TestOneRenderingPerRun:
    """Each command builds only the format it prints."""

    @staticmethod
    def refuse(*_args, **_kwargs):
        raise AssertionError("built a rendering that is not printed")

    def test_text_runs_build_no_json(self, monkeypatch):
        argvs = [("solve", "pd-extended"), ("solve", "bos", "--method", "support")]
        expected = [run(*argv) for argv in argvs]
        monkeypatch.setattr(cli, "_equilibrium_entry", self.refuse)
        monkeypatch.setattr(cli, "dumps", self.refuse)
        for argv, before in zip(argvs, expected):
            assert before[0] == 0
            assert run(*argv) == before

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
        monkeypatch.setattr(cli, "_equilibrium_lines", self.refuse)
        monkeypatch.setattr(cli, "_matrix_lines", self.refuse)
        for argv, before in zip(argvs, expected):
            assert before[0] == 0
            assert run(*argv, "--json") == before

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
