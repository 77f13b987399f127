import dataclasses

import numpy as np
import pytest

from mobench import engine as engine_module
from mobench import molpb
from mobench.archive import ParetoArchive
from mobench.dominance import crowded_order, non_dominated_sort, rank_and_crowd
from mobench.errors import InvalidStateError
from mobench.harness import ALGORITHMS, ENGINES
from mobench.problems import decode
from mobench.suite import get_problem

from oracles import (
    crowded_selection_oracle,
    distinct_non_dominated_python,
    partition_recount,
    rank_and_crowd_oracle,
    rank_array,
    truncation_oracle,
)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_stored_genotype_is_decoded(algorithm):
    # the population holds decoded vectors, which SBX and mutation then
    # perturb; every stored row is already a legal decision vector
    engine_cls, config_cls = ENGINES[algorithm]
    problem = get_problem("coil_spring")
    engine = engine_cls(config_cls(n_pop=16, seed=2), problem)
    engine.initialize()
    for _ in range(3):
        engine.step()
    for row in engine.X:
        assert np.array_equal(row, decode(row, problem))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_an_engine_runs_once(algorithm):
    # a second run would continue the first one's population, archive and
    # counters, so it is refused, and the first result stands
    engine_cls, config_cls = ENGINES[algorithm]
    engine = engine_cls(config_cls(seed=1, max_generations=5), get_problem("zdt1"))
    result = engine.run()
    assert (result.generations, result.evaluations) == (5, 800)
    for again in (engine.run, engine.initialize):
        with pytest.raises(InvalidStateError):
            again()
    assert (engine.generation, engine.evaluations) == (5, 800)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_step_before_initialize_is_refused(algorithm):
    # without a population there is nothing to mate; the refusal comes
    # before any draw, so the engine is left as it was made
    engine_cls, config_cls = ENGINES[algorithm]
    engine = engine_cls(config_cls(seed=1), get_problem("zdt1"))
    state = engine.rng.bit_generator.state
    with pytest.raises(InvalidStateError, match="initialize"):
        engine.step()
    assert (engine.generation, engine.evaluations) == (0, 0)
    assert engine.rng.bit_generator.state == state


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_population_is_stored_best_first(algorithm):
    # rows are in crowded order, so the population's own front numbers
    # never decrease down the rows; on zdt4 the population keeps several
    # fronts for many generations
    engine_cls, config_cls = ENGINES[algorithm]
    engine = engine_cls(config_cls(n_pop=20, seed=3), get_problem("zdt4"))
    engine.initialize()
    ranks = [non_dominated_sort(engine.F)]
    for _ in range(10):
        engine.step()
        ranks.append(non_dominated_sort(engine.F))
    assert all(np.all(np.diff(rank) >= 0) for rank in ranks)
    assert all(rank.max() > 0 for rank in ranks)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_one_archive_offer_per_generation_of_its_own_rows(algorithm, monkeypatch):
    # each generation makes one insert call, and it offers only rows
    # evaluated in that generation, so no point is offered twice
    offers, evaluated = [], []
    insert = ParetoArchive.insert

    def recording_insert(self, F):
        offers.append(np.array(F))
        return insert(self, F)

    monkeypatch.setattr(ParetoArchive, "insert", recording_insert)
    engine_cls, config_cls = ENGINES[algorithm]
    engine = engine_cls(config_cls(n_pop=20, seed=4), get_problem("zdt1"))
    evaluate = engine._evaluate

    def recording_evaluate(rows):
        X, F = evaluate(rows)
        evaluated.append(F)
        return X, F

    engine._evaluate = recording_evaluate
    offered_rows = 0
    for advance in [engine.initialize] + [engine.step] * 15:
        offers.clear()
        advance()
        assert len(offers) == 1
        (offered,) = offers
        assert set(map(tuple, offered.tolist())) <= set(map(tuple, evaluated[-1].tolist()))
        offered_rows += len(offered)
    assert offered_rows > 0


def on_grid(problem, step):
    """The problem with its objectives rounded to multiples of ``step``, so
    that equal objective values and exact crowding ties are common."""
    return dataclasses.replace(
        problem,
        name=f"{problem.name}_grid",
        objectives=lambda x: np.round(problem.objectives(x) / step) * step,
    )


def oracle_insert(truncate):
    """An archive insert whose keep rule is the brute-force one and whose
    truncation is ``truncate(archive)``."""

    def insert(self, F):
        new = np.atleast_2d(np.asarray(F, dtype=float))
        if new.size == 0:
            return 0
        stacked = np.concatenate([self._F, new]) if len(self) else new
        keep = np.array(distinct_non_dominated_python(stacked.tolist()), dtype=bool)
        self._F = stacked[keep]
        truncate(self)
        return int(keep[len(stacked) - len(new):].sum())

    return insert


def crowded_best(rank, crowd) -> int:
    return int(crowded_order(rank, crowd)[0])


@pytest.mark.parametrize(
    "problem",
    [
        get_problem("zdt1"),
        get_problem("car_side_impact"),
        on_grid(get_problem("car_side_impact"), 0.1),
    ],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runs_match_the_recompute_from_scratch_oracles(algorithm, problem, monkeypatch):
    # one-pass and front-0-only crowding, the extremes pivot, MOLPB's
    # chain path and incremental truncation are exact: a run is
    # byte-identical to one that ranks front by front, selects by sorting
    # rows one at a time, splits and routes every MOLPB generation through
    # the oracle-patched helpers, and recomputes every crowding distance
    # after each archive drop; the gridded problem makes the tie rule matter
    engine_cls, config_cls = ENGINES[algorithm]

    def run():
        engine = engine_cls(config_cls(max_generations=40, seed=5), problem)
        front = engine.run().front
        return engine.X.tobytes(), engine.F.tobytes(), front.tobytes()

    fast = run()
    drops = []

    def oracle_truncate(self):
        kept = truncation_oracle(self._F.tolist(), self.capacity)
        drops.append(len(self._F) - len(kept))
        self._F = self._F[kept]

    monkeypatch.setattr(ParetoArchive, "insert", oracle_insert(oracle_truncate))
    monkeypatch.setattr(engine_module, "select", crowded_selection_oracle)
    monkeypatch.setattr(molpb, "rank_and_crowd", rank_and_crowd_oracle)
    monkeypatch.setattr(molpb, "best_of_bad", lambda F: crowded_best(*rank_and_crowd_oracle(F)))
    monkeypatch.setattr(molpb, "_chain_route", lambda F, separated, main: None)
    assert run() == fast
    assert sum(drops) > 0


def recount_rank_and_crowd(F):
    """Ranks by recounting dominators, with the library's crowding."""
    return rank_array(partition_recount(F)), rank_and_crowd(F)[1]


@pytest.mark.parametrize(
    "algorithm, problem",
    [
        ("molpb", get_problem("zdt1")),
        ("nsga2", get_problem("coil_spring")),
        ("nsga2", get_problem("car_side_impact")),
        ("molpb", on_grid(get_problem("car_side_impact"), 0.1)),
    ],
    ids=["zdt1-molpb", "coil_spring-nsga2", "car_side_impact-nsga2", "car_side_impact_grid-molpb"],
)
def test_runs_match_the_scalar_sort_and_archive_oracles(algorithm, problem, monkeypatch):
    # whatever scheme ranks the rows and picks the archive's survivors, a
    # run is byte-identical to one that sorts by recounting dominators,
    # keeps the rows that no row dominates and no earlier row equals, and
    # truncates with the general many-objective code; the patched MOLPB
    # run never takes the chain path, so its helpers see every generation
    engine_cls, config_cls = ENGINES[algorithm]

    def run():
        engine = engine_cls(config_cls(max_generations=40, seed=7), problem)
        front = engine.run().front
        return engine.X.tobytes(), engine.F.tobytes(), front.tobytes()

    fast = run()

    def recount_select(F, k):
        rank, crowd = recount_rank_and_crowd(F)
        return crowded_order(rank, crowd)[:k], rank == 0

    monkeypatch.setattr(ParetoArchive, "insert", oracle_insert(ParetoArchive.truncate))
    monkeypatch.setattr(engine_module, "select", recount_select)
    monkeypatch.setattr(molpb, "rank_and_crowd", recount_rank_and_crowd)
    monkeypatch.setattr(molpb, "best_of_bad", lambda F: crowded_best(*recount_rank_and_crowd(F)))
    monkeypatch.setattr(molpb, "_chain_route", lambda F, separated, main: None)
    assert run() == fast
