import numpy as np
import pytest

from mobench.dominance import crowded_order, rank_and_crowd
from mobench.errors import InvalidConfigError
from mobench.nsga2 import Nsga2Config, Nsga2Engine
from mobench.suite import get_problem

from oracles import dominates_scalar, non_dominated_mask_python


def run(config, problem):
    return Nsga2Engine(config, problem).run()


class TestConfig:
    def test_table_defaults(self):
        cfg = Nsga2Config()
        assert cfg.n_pop == 100
        assert cfg.offspring_count == 140
        assert cfg.archive_capacity == 100

    def test_rejects_negative_generations(self):
        with pytest.raises(InvalidConfigError):
            Nsga2Config(max_generations=-1)


class TestGeneration:
    def test_population_size_constant(self):
        engine = Nsga2Engine(Nsga2Config(n_pop=24, seed=0), get_problem("zdt1"))
        engine.initialize()
        for _ in range(5):
            engine.step()
            assert engine.X.shape == (24, 30) and engine.F.shape == (24, 2)

    def test_merged_set_grows_by_offspring_count(self):
        cfg = Nsga2Config(n_pop=24, seed=1)
        engine = Nsga2Engine(cfg, get_problem("zdt1"))
        engine.initialize()
        before = engine.evaluations
        engine.step()
        # offspring evaluated per generation = merged size - N
        assert engine.evaluations - before == cfg.offspring_count

    def test_exactly_fitting_front_zero_is_copied_whole(self):
        # six points, exactly three of them non-dominated
        F = np.array([(0, 3), (1, 1), (3, 0), (2, 3), (3, 2), (4, 4)], dtype=float)
        rank, crowd = rank_and_crowd(F)
        assert np.count_nonzero(rank == 0) == 3
        kept = crowded_order(rank, crowd)[:3]
        assert {tuple(F[i]) for i in kept} == {(0, 3), (1, 1), (3, 0)}

    def test_elitism_never_trades_rank_zero_for_dominated(self):
        # when front 0 overflows, only front-0 members are selected
        rng = np.random.default_rng(2)
        F = rng.random((40, 2))
        rank, crowd = rank_and_crowd(F)
        k = max(2, np.count_nonzero(rank == 0) - 2)
        kept = crowded_order(rank, crowd)[:k]
        assert len(kept) == k and all(rank[kept] == 0)

    def test_tournament_winner_is_lower_row_index(self):
        # the population is stored best first, so the lower row index is
        # the crowded-comparison winner, and an index drawn twice wins
        class Draws:  # hands the tournaments fixed contestants
            def integers(self, low, high, size):
                assert (low, high) == (0, 6)
                # [first contestants, second contestants], each [parent a, parent b]
                return np.array([[[0, 3], [1, 5]], [[1, 1], [2, 4]]]).reshape(size)

        engine = Nsga2Engine(Nsga2Config(n_pop=6, offspring_count=4, seed=0), get_problem("zdt1"))
        engine.initialize()
        engine.rng = Draws()
        a, b = engine.mating()
        assert a.tolist() == [0, 1]  # 0 vs 1, 3 vs 1
        assert b.tolist() == [1, 4]  # 1 vs 2, 5 vs 4

    def test_archive_mutually_non_dominated(self):
        engine = Nsga2Engine(Nsga2Config(n_pop=20, seed=3), get_problem("zdt2"))
        engine.initialize()
        for _ in range(5):
            engine.step()
            F = engine.archive.objectives()
            for i in range(len(F)):
                for j in range(len(F)):
                    assert i == j or not dominates_scalar(F[i], F[j])


class TestRun:
    def test_seed_determinism(self):
        cfg = Nsga2Config(n_pop=20, seed=4, max_generations=8)
        e1, e2 = Nsga2Engine(cfg, get_problem("zdt1")), Nsga2Engine(cfg, get_problem("zdt1"))
        r1, r2 = e1.run(), e2.run()
        assert np.array_equal(r1.front, r2.front)
        assert np.array_equal(e1.X, e2.X) and np.array_equal(e1.F, e2.F)

    def test_zero_generations_archive_is_initial_front(self):
        problem = get_problem("zdt6")
        result = run(Nsga2Config(n_pop=25, seed=5, max_generations=0), problem)
        engine = Nsga2Engine(Nsga2Config(n_pop=25, seed=5), problem)
        engine.initialize()
        F = engine.F
        mask = non_dominated_mask_python(F.tolist())
        expected = {tuple(row) for row, keep in zip(F.tolist(), mask) if keep}
        assert {tuple(row) for row in result.front.tolist()} == expected

    def test_result_metadata(self):
        cfg = Nsga2Config(n_pop=16, seed=6, max_generations=3)
        result = run(cfg, get_problem("zdt1"))
        assert result.algorithm == "nsga2"
        assert result.problem == "zdt1"
        assert result.seed == 6
        assert result.generations == 3
        assert result.evaluations == 16 + 3 * cfg.offspring_count
        assert result.wall_ms > 0
