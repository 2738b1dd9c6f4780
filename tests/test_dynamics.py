"""Event machinery, behavior checking, the simulator, and trace conformance."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random

import pytest

from conftest import (
    all_linear_extensions,
    closure_pairs,
    load_shapes,
    random_model,
    region_stages,
    scan_candidates,
    track_arrivals,
    undirected_components,
)
from tmkit.diagnostics import (
    BEHAVIOR_INCONSISTENT,
    REF_UNRESOLVED,
    REGION_DISCONNECTED,
    REGION_EMPTY,
    ModelError,
    NotEnabledError,
)
from tmkit.dsl import lower, parse
from tmkit.dynamics import (
    EVENT_FIRED,
    FIFO,
    RANDOM,
    STAGE_EXECUTED,
    TOKEN_REJECTED,
    BehaviorEdge,
    BehaviorGraph,
    Candidate,
    SimOptions,
    Trace,
    TraceRecord,
    _Fenwick,
    build_events,
    check_behavior,
    conforms,
    define_event,
    elementary_events,
    enabled,
    init_state,
    run,
    step,
)
from tmkit.model import build_model
from tmkit.validator import COMPOSITE, ELEMENTARY


def model_of(text: str):
    return lower(parse(text)).model


def events_of(doc):
    events, diags = build_events(doc.model, doc.events)
    assert not diags, diags
    return events


# -- elementary events ---------------------------------------------------------

def test_no_stages_no_events():
    assert elementary_events(build_model([], [], [], [])) == []


def test_heating_water_has_eight_elementary_events(corpus_docs):
    model = corpus_docs["heating_water"].model
    events = elementary_events(model)
    assert len(events) == 8
    assert [e.region for e in events] == [(s.id,) for s in model.stages]
    assert all(e.level == ELEMENTARY for e in events)


def test_dough_has_an_event_for_the_dough_creation(corpus_docs):
    events = elementary_events(corpus_docs["dough_cookie"].model)
    assert any(e.region == ("Dough.create",) for e in events)


def test_elementary_count_equals_stage_count_on_random_models():
    rng = random.Random(3)
    for _ in range(30):
        model = random_model(rng)
        assert len(elementary_events(model)) == len(model.stages)


# -- define_event ----------------------------------------------------------------

def test_event_of_stage_plus_incident_flow_is_elementary(corpus_docs):
    model = corpus_docs["dough_cookie"].model
    flow_id = "flow:Cutter.dough.receive->Cutter.dough.process"
    event, warns = define_event(model, "Stamped", ("Cutter.dough.process", flow_id))
    assert warns == []
    assert event.level == ELEMENTARY
    assert event.region == ("Cutter.dough.process", flow_id)


def test_multi_stage_event_is_composite_of_its_stages(corpus_docs):
    model = corpus_docs["heating_water"].model
    event, _ = define_event(model, "Flow", ("Heat.create", "Heat.release"))
    assert event.level == COMPOSITE
    assert event.constituents == ("Heat.create", "Heat.release")


def test_explicit_constituents_take_the_union_region(corpus_docs):
    model = corpus_docs["heating_water"].model
    parts = [e for e in elementary_events(model) if e.id.startswith("Heat.")]
    composite, _ = define_event(model, "HeatSide", (), constituents=parts)
    assert composite.level == COMPOSITE
    assert set(composite.region) == {"Heat.create", "Heat.release", "Heat.transfer"}
    assert composite.constituents == tuple(p.id for p in parts)


def test_empty_region_is_an_error(corpus_docs):
    with pytest.raises(ModelError) as exc:
        define_event(corpus_docs["heating_water"].model, "E", ())
    assert exc.value.codes() == (REGION_EMPTY,)


def test_unknown_region_element_is_unresolved(corpus_docs):
    with pytest.raises(ModelError) as exc:
        define_event(corpus_docs["heating_water"].model, "E", ("Heat.create", "ghost"))
    assert exc.value.codes() == (REF_UNRESOLVED,)


def test_disconnected_region_warns_and_matches_brute_force():
    model = model_of("""
    thimac A { create; process; }
    thimac B { create; }
    flow A.create -> A.process;
    """)
    _, warns = define_event(model, "E", ("A.create", "B.create"))
    assert [w.code for w in warns] == [REGION_DISCONNECTED]

    cases = [(model, ("A.create", "B.create")), (model, ("A.create", "A.process"))]
    rng = random.Random(11)
    for _ in range(40):
        model = random_model(rng)
        elements = model.element_ids()
        for _ in range(5):
            cases.append((model, tuple(rng.sample(elements, rng.randint(1, min(4, len(elements)))))))
    verdicts = set()
    for model, region in cases:
        _, warns = define_event(model, "E", region)
        edges = [(e.source, e.target) for e in (*model.flows, *model.triggers)]
        components = undirected_components({s.id for s in model.stages}, edges)
        split = not any(region_stages(model, region) <= c for c in components)
        assert [w.code for w in warns] == ([REGION_DISCONNECTED] if split else [])
        verdicts.add(split)
    assert verdicts == {True, False}


def test_connected_region_through_outside_stages_is_fine(corpus_docs):
    model = corpus_docs["heating_water"].model
    _, warns = define_event(model, "Ends", ("Heat.create", "Water.heat.process"))
    assert warns == []


# -- check_behavior ---------------------------------------------------------------

def test_dough_chronology_checks_out(corpus_docs):
    doc = corpus_docs["dough_cookie"]
    events = events_of(doc)
    report = check_behavior(doc.model, events, doc.behavior)
    assert report.ok


def test_reversed_chronology_is_inconsistent(corpus_docs):
    doc = corpus_docs["dough_cookie"]
    events = events_of(doc)
    reversed_graph = BehaviorGraph(
        nodes=("E1", "E3"), edges=(BehaviorEdge("E3", "E1"),))
    report = check_behavior(doc.model, events, reversed_graph)
    assert [d.code for d in report.diagnostics] == [BEHAVIOR_INCONSISTENT]


def test_single_event_no_edges_is_vacuously_ok(corpus_docs):
    doc = corpus_docs["dough_cookie"]
    events = events_of(doc)
    graph = BehaviorGraph(nodes=("E1",), edges=())
    assert check_behavior(doc.model, events, graph).ok


def test_unmarked_cycle_is_inconsistent(corpus_docs):
    doc = corpus_docs["heating_water"]
    events = events_of(doc)
    graph = BehaviorGraph(
        nodes=("E1", "E2"),
        edges=(BehaviorEdge("E1", "E2"), BehaviorEdge("E2", "E1")),
    )
    report = check_behavior(doc.model, events, graph)
    assert BEHAVIOR_INCONSISTENT in [d.code for d in report.diagnostics]


def test_repeat_edge_must_close_a_loop(corpus_docs):
    doc = corpus_docs["dough_cookie"]
    events = events_of(doc)
    graph = BehaviorGraph(
        nodes=("E1", "E2", "E3"),
        edges=(
            BehaviorEdge("E1", "E2"),
            BehaviorEdge("E3", "E1", repeat=True),  # E3 never precedes E1 here
        ),
    )
    report = check_behavior(doc.model, events, graph)
    assert BEHAVIOR_INCONSISTENT in [d.code for d in report.diagnostics]


def test_repeat_edge_in_heating_water_is_consistent(corpus_docs):
    doc = corpus_docs["heating_water"]
    events = events_of(doc)
    assert check_behavior(doc.model, events, doc.behavior).ok


def test_path_verdicts_match_closure_on_random_models():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(30):
        model = random_model(rng)
        elements = model.element_ids()
        events = [
            define_event(model, f"E{i}", rng.sample(elements, rng.randint(1, min(3, len(elements)))))[0]
            for i in range(5)
        ]
        # Only forward edges, so the chronology stays acyclic and every
        # diagnostic is a path verdict.
        edges = tuple(BehaviorEdge(a.id, b.id)
                      for a, b in itertools.combinations(events, 2) if rng.random() < 0.5)
        report = check_behavior(model, events, BehaviorGraph(tuple(e.id for e in events), edges))
        flagged = {d.element for d in report.diagnostics}
        pairs = closure_pairs(
            [s.id for s in model.stages],
            [(e.source, e.target) for e in (*model.flows, *model.triggers)],
        )
        by_id = {e.id: e for e in events}
        for edge in edges:
            backed = any(
                (u, v) in pairs
                for u in region_stages(model, by_id[edge.before].region)
                for v in region_stages(model, by_id[edge.after].region)
            )
            assert (f"{edge.before}->{edge.after}" not in flagged) == backed
            verdicts.add(backed)
    assert verdicts == {True, False}


def test_unknown_event_in_edge_is_unresolved(corpus_docs):
    doc = corpus_docs["dough_cookie"]
    events = events_of(doc)
    graph = BehaviorGraph(nodes=(), edges=(BehaviorEdge("E1", "Ghost"),))
    report = check_behavior(doc.model, events, graph)
    assert [d.code for d in report.diagnostics] == [REF_UNRESOLVED]


# -- simulator: state and candidates ----------------------------------------------

def test_init_state_is_empty_and_repeatable(corpus_docs):
    doc = corpus_docs["heating_water"]
    events = events_of(doc)
    options = SimOptions(seed=42)
    state = init_state(doc.model, options, events)
    assert state.tokens == {}
    assert state.step_count == 0
    assert state == init_state(doc.model, options, events)


def test_fresh_heating_state_offers_exactly_the_heat_creation(corpus_docs):
    doc = corpus_docs["heating_water"]
    state = init_state(doc.model, SimOptions(), events_of(doc))
    assert enabled(state) == [Candidate(kind="create", stage="Heat.create")]


def test_empty_model_offers_nothing():
    state = init_state(build_model([], [], [], []))
    assert enabled(state) == []


def test_token_parked_at_dead_end_offers_nothing():
    model = model_of("""
    thimac A { create; release; transfer; }
    flow A.create -> A.release;
    flow A.release -> A.transfer;
    """)
    state = init_state(model)
    for _ in range(3):
        step(state, enabled(state)[0])
    assert enabled(state) == []  # parked at the transfer, cap used up


def test_stale_candidate_raises_not_enabled(corpus_docs):
    doc = corpus_docs["heating_water"]
    state = init_state(doc.model, SimOptions(), events_of(doc))
    candidate = enabled(state)[0]
    step(state, candidate)
    with pytest.raises(NotEnabledError):
        step(state, candidate)  # the creation cap is spent


def _step_until(state, kind):
    """Take fifo steps until a candidate of ``kind`` is enabled, and return it."""
    while True:
        candidates = enabled(state)
        chosen = next((c for c in candidates if c.kind == kind), None)
        if chosen is not None:
            return chosen
        step(state, candidates[0])


def test_rerun_move_and_drained_trigger_raise_not_enabled(corpus_docs):
    doc = corpus_docs["heating_water"]
    state = init_state(doc.model, SimOptions(), events_of(doc))
    move = _step_until(state, "move")
    step(state, move)
    with pytest.raises(NotEnabledError):
        step(state, move)  # the token has left the flow's source
    trigger = _step_until(state, "trigger")
    step(state, trigger)
    assert not state.pending
    with pytest.raises(NotEnabledError):
        step(state, trigger)


@pytest.mark.parametrize("field, value", [
    ("token", True), ("flow_index", True), ("token", 1.0), ("flow_index", 1.0),
], ids=["token", "flow_index", "token-1.0", "flow_index-1.0"])
def test_bool_token_or_flow_index_raises_not_enabled(corpus_docs, field, value):
    # True and 1.0 equal 1 and hash like it, so only an exact int check
    # keeps one from standing in for token 1 or flow 1.
    doc = corpus_docs["dough_cookie"]
    state = init_state(doc.model, SimOptions(), events_of(doc))
    move = _step_until(state, "move")
    while getattr(move, field) != 1:
        step(state, move)
        move = _step_until(state, "move")
    with pytest.raises(NotEnabledError):
        step(state, dataclasses.replace(move, **{field: value}))
    step(state, move)


def test_move_by_rejected_token_raises_not_enabled():
    model = model_of("""
    thimac A { create; release; transfer; }
    thimac B { transfer; arrive; accept; process; }
    flow A.create -> A.release;
    flow A.release -> A.transfer;
    flow A.transfer -> B.transfer;
    flow B.transfer -> B.arrive;
    flow B.arrive -> B.accept;
    flow B.accept -> B.process;
    """)
    state = init_state(model, SimOptions(reject_accept=frozenset({"B.accept"})))
    records = []
    while not records or records[-1].kind != TOKEN_REJECTED:
        records = step(state, enabled(state)[0])[1]
    (token,) = records[-1].tokens
    onward = [f.source for f in model.flows].index("B.accept")
    with pytest.raises(NotEnabledError):
        step(state, Candidate(kind="move", token=token, flow_index=onward))


def test_token_count_changes_by_zero_or_one_per_step(corpus_docs):
    doc = corpus_docs["tendering"]
    state = init_state(doc.model, SimOptions(), events_of(doc))
    mints = 0
    while True:
        candidates = enabled(state)
        if not candidates:
            break
        before = len(state.tokens)
        step(state, candidates[0])
        delta = len(state.tokens) - before
        assert delta in (0, 1)
        mints += delta
    assert len(state.tokens) == mints  # nothing destroyed


def test_step_chain_reaches_water_process_then_temperature(corpus_docs):
    doc = corpus_docs["heating_water"]
    trace = run(doc.model, events_of(doc), SimOptions())
    executed = list(trace.stage_executions())
    assert executed.index("Water.heat.process") < executed.index("Water.temperature.create")


def test_trace_steps_strictly_increase(corpus_docs):
    for doc in corpus_docs.values():
        trace = run(doc.model, events_of(doc), SimOptions())
        steps = [r.step for r in trace.records]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)


# -- simulator: runs ----------------------------------------------------------------

def test_dough_fifo_chronology(corpus_docs):
    doc = corpus_docs["dough_cookie"]
    trace = run(doc.model, events_of(doc), SimOptions(policy="fifo", creation_cap=1))
    assert trace.event_firings() == ("E1", "E2", "E3")


@pytest.mark.parametrize("policy", ["Random", "FIFO", "lifo", ""])
def test_an_unknown_policy_is_rejected(policy):
    with pytest.raises(ValueError, match="unknown policy"):
        SimOptions(policy=policy)
    with pytest.raises(ValueError, match="unknown policy"):
        dataclasses.replace(SimOptions(), policy=policy)


def test_heating_cap_three_repeats_the_pair(corpus_docs):
    doc = corpus_docs["heating_water"]
    trace = run(doc.model, events_of(doc), SimOptions(creation_cap=3, seed=0))
    assert trace.event_firings() == ("E1", "E2") * 3


def test_creations_observed_equal_the_cap(corpus_docs):
    doc = corpus_docs["heating_water"]
    trace = run(doc.model, events_of(doc), SimOptions(creation_cap=3))
    creations = [r for r in trace.records
                 if r.kind == STAGE_EXECUTED and r.element == "Heat.create"]
    assert len(creations) == 3


def test_same_seed_same_trace(corpus_docs):
    doc = corpus_docs["tendering"]
    events = events_of(doc)
    options = SimOptions(seed=9, policy="random")
    first = run(doc.model, events, options)
    second = run(doc.model, events, options)
    assert first == second
    assert first.to_ndjson() == second.to_ndjson()


def test_random_policy_still_exhausts_the_model(corpus_docs):
    doc = corpus_docs["dough_cookie"]
    trace = run(doc.model, events_of(doc), SimOptions(policy="random", seed=5))
    assert set(trace.event_firings()) == {"E1", "E2", "E3"}
    assert not trace.truncated


def test_trigger_cycle_truncates_at_the_step_bound():
    model = model_of("""
    thimac A { create; process(x); process(y); }
    trigger A.create ~> A.process(x);
    trigger A.process(x) ~> A.process(y);
    trigger A.process(y) ~> A.process(x);
    """)
    trace = run(model, (), SimOptions(max_steps=40))
    assert trace.truncated
    assert len(trace.records) >= 40


def test_rejecting_accept_discards_the_token():
    model = model_of("""
    thimac A { create; release; transfer; }
    thimac B { transfer; arrive; accept; process; }
    flow A.create -> A.release;
    flow A.release -> A.transfer;
    flow A.transfer -> B.transfer;
    flow B.transfer -> B.arrive;
    flow B.arrive -> B.accept;
    flow B.accept -> B.process;
    """)
    accept_id = "B.accept"
    trace = run(model, (), SimOptions(reject_accept=frozenset({accept_id})))
    kinds = [r.kind for r in trace.records]
    assert TOKEN_REJECTED in kinds
    assert "B.accept" not in trace.stage_executions()
    assert "B.process" not in trace.stage_executions()
    accepted = run(model, (), SimOptions())
    assert "B.process" in accepted.stage_executions()


def _replay(model, events, options: SimOptions) -> Trace:
    """Run through init_state/enabled/step, choosing as ``run`` does. Before
    every step, check ``enabled`` against the full-scan oracle, check that
    the Fenwick tree counts every untaken flow on the frontier and every
    spontaneous create still under the cap, and check that ``step``
    refuses each candidate of the step before that is gone."""
    state = init_state(model, options, events)
    at: dict[str, list[int]] = {}
    records = []
    candidates = []
    while state.step_count < options.max_steps:
        waiting = sum(len(untaken) for tokens in state.frontier.values()
                      for untaken in tokens.values())
        creatable = sum(state.creations_used.get(sid, 0) < options.creation_cap
                        for sid in model.spontaneous_creates)
        assert state.counts.total == waiting + creatable, state.step_count
        expected = scan_candidates(state, at)
        stale = [c for c in candidates if c not in expected]
        candidates = enabled(state)
        assert candidates == expected, state.step_count
        for candidate in stale:
            with pytest.raises(NotEnabledError):
                step(state, candidate)
        if not candidates:
            return Trace(tuple(records), False)
        if options.policy == RANDOM:
            chosen = candidates[state.rng.randrange(len(candidates))]
        else:
            chosen = candidates[0]
        new = step(state, chosen)[1]
        track_arrivals(at, new)
        records.extend(new)
    return Trace(tuple(records), bool(enabled(state)))


def test_enabled_matches_full_scan_and_replay_matches_run(corpus_docs):
    looping = model_of("""
    thimac A { create; release; transfer; }
    thimac B { transfer; arrive; accept; process; }
    thimac L { create(t); process(t); }
    flow A.create -> A.release;
    flow A.release -> A.transfer;
    flow A.transfer -> B.transfer;
    flow B.transfer -> B.arrive;
    flow B.arrive -> B.accept;
    flow B.accept -> B.process;
    flow L.create(t) -> L.process(t);
    trigger B.process ~> L.create(t);
    trigger L.process(t) ~> L.create(t);
    """)
    cases = [(doc.model, events_of(doc)) for doc in corpus_docs.values()]
    cases.append((looping, elementary_events(looping)))
    rng = random.Random(31)
    for _ in range(40):
        model = random_model(rng)
        cases.append((model, elementary_events(model)))
    for n, (model, events) in enumerate(cases):
        for policy, seed in itertools.product((FIFO, RANDOM), range(3)):
            options = SimOptions(
                seed=seed, max_steps=(60, 400)[n % 2], creation_cap=1 + seed % 2,
                policy=policy, reject_accept=frozenset({"B.accept"}) if seed == 2 else frozenset())
            trace = run(model, events, options)
            assert _replay(model, events, options).to_ndjson() == trace.to_ndjson(), (n, options)
            if seed == 0 and not trace.truncated:
                # A bound equal to the run's length stops it exactly as it
                # exhausts, which is no cut.
                exact = dataclasses.replace(options, max_steps=len(trace.records))
                assert (_replay(model, events, exact).to_ndjson()
                        == run(model, events, exact).to_ndjson() == trace.to_ndjson()), (n, exact)


@pytest.mark.parametrize("shape", ["authoring", "sim-fanout", "sim-relay"])
def test_replay_matches_run_on_the_benchmark_shapes(shape):
    """The benchmark's three shapes at n = 4 through the same oracle:
    sim-fanout's wide frontier of independent pairs, sim-relay's narrow
    frontier fed by one pending trigger while a token parks at the end of
    every pair on every lap, and authoring's refined chains."""
    doc = lower(parse(load_shapes().GENERATORS[shape](4, 1).text))
    events = events_of(doc)
    for policy, seed, cap in itertools.product((FIFO, RANDOM), range(3), (1, 2)):
        options = SimOptions(seed=seed, max_steps=300, creation_cap=cap, policy=policy)
        assert (_replay(doc.model, events, options).to_ndjson()
                == run(doc.model, events, options).to_ndjson()), options


def _scan(counts: list[int], k: int) -> tuple[int, int]:
    for position, count in enumerate(counts):
        if k < count:
            return position, k
        k -= count
    raise AssertionError(f"unit {k} past the total")


@pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65])
def test_fenwick_matches_a_linear_prefix_scan(size):
    """After every update of a random sequence that keeps each count
    non-negative, ``total`` and ``find(k)`` for every unit k agree with a
    linear scan over a plain list of counts. Sizes one past a power of two
    put a position beyond ``top``."""
    rng = random.Random(size)
    tree, counts = _Fenwick(size), [0] * size
    assert tree.total == 0
    for _ in range(2 * size):
        position = rng.randrange(size)
        delta = rng.randint(-counts[position], 2)
        tree.add(position, delta)
        counts[position] += delta
        assert tree.total == sum(counts)
        assert [tree.find(k) for k in range(tree.total)] == [
            _scan(counts, k) for k in range(tree.total)]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65])
def test_fenwick_move_matches_a_linear_prefix_scan(size):
    """Random ``move(source, taken, target, added)`` calls, each taking no
    more than the source's count, interleaved with ``add`` calls. After
    every call, ``total`` and ``find(k)`` for every unit k agree with a
    linear scan, and the tree equals one built by two ``add`` calls per
    move. The draws include moves within one position, moves with zero net
    change, and moves from and to the last position, which lies beyond
    ``top`` at sizes one past a power of two."""
    rng = random.Random(size)
    tree, twice, counts = _Fenwick(size), _Fenwick(size), [0] * size
    last = size - 1
    drawn = set()
    for n in range(4 * size + 24):
        if n % 3 == 0:
            position = rng.randrange(size)
            delta = rng.randint(-counts[position], 3)
            tree.add(position, delta)
            twice.add(position, delta)
            counts[position] += delta
        else:
            source = rng.choice((last, rng.randrange(size)))
            target = rng.choice((source, last, rng.randrange(size)))
            taken = rng.randint(0, counts[source])
            added = rng.choice((taken, rng.randint(0, 3)))
            tree.move(source, taken, target, added)
            twice.add(source, -taken)
            twice.add(target, added)
            counts[source] -= taken
            counts[target] += added
            drawn.update(tag for tag, hit in (
                ("same", source == target), ("net zero", taken == added > 0),
                ("from last", source == last), ("to last", target == last)) if hit)
        assert tree.total == sum(counts)
        assert tree.tree == twice.tree
        assert [tree.find(k) for k in range(tree.total)] == [
            _scan(counts, k) for k in range(tree.total)]
    assert drawn == {"same", "net zero", "from last", "to last"}


# -- soundness properties -------------------------------------------------------------

def test_consecutive_executions_per_token_follow_flows(corpus_docs):
    for doc in corpus_docs.values():
        model = doc.model
        flow_pairs = {(f.source, f.target) for f in model.flows}
        trace = run(model, events_of(doc), SimOptions(creation_cap=2))
        per_token: dict[int, list[str]] = {}
        for record in trace.records:
            if record.kind == STAGE_EXECUTED:
                per_token.setdefault(record.tokens[0], []).append(record.element)
        for path in per_token.values():
            for a, b in zip(path, path[1:]):
                assert (a, b) in flow_pairs


def test_events_fire_only_on_region_stages(corpus_docs):
    for doc in corpus_docs.values():
        events = events_of(doc)
        regions = {e.id: set(e.region) for e in events}
        trace = run(doc.model, events, SimOptions(creation_cap=2))
        last_stage = None
        for record in trace.records:
            if record.kind == STAGE_EXECUTED:
                last_stage = record.element
            elif record.kind == EVENT_FIRED:
                assert last_stage is not None
                assert last_stage in regions[record.element]


def test_random_models_fire_elementary_events_soundly():
    rng = random.Random(17)
    for _ in range(20):
        model = random_model(rng)
        events = elementary_events(model)
        trace = run(model, events, SimOptions(creation_cap=2))
        regions = {e.id: set(e.region) for e in events}
        last_stage = None
        for record in trace.records:
            if record.kind == STAGE_EXECUTED:
                last_stage = record.element
            elif record.kind == EVENT_FIRED:
                assert last_stage in regions[record.element]


# -- conformance -------------------------------------------------------------------

def fired_trace(names: list[str]) -> Trace:
    return Trace(tuple(
        TraceRecord(i + 1, EVENT_FIRED, name, ()) for i, name in enumerate(names)
    ))


def test_dough_trace_conforms(corpus_docs):
    doc = corpus_docs["dough_cookie"]
    trace = run(doc.model, events_of(doc), SimOptions())
    assert conforms(trace, doc.behavior).ok


def test_out_of_order_fire_reports_the_violated_edge(corpus_docs):
    graph = corpus_docs["dough_cookie"].behavior
    verdict = conforms(fired_trace(["E1", "E3", "E2"]), graph)
    assert not verdict.ok
    assert verdict.violation == ("E2", "E3")


def test_empty_trace_conforms_vacuously(corpus_docs):
    assert conforms(Trace(()), corpus_docs["tendering"].behavior).ok


def test_refire_without_repeat_edge_is_a_violation(corpus_docs):
    graph = corpus_docs["dough_cookie"].behavior
    verdict = conforms(fired_trace(["E1", "E1"]), graph)
    assert not verdict.ok
    assert verdict.violation == ("E1", "E1")


def test_heating_repetition_conforms_via_repeat_edge(corpus_docs):
    doc = corpus_docs["heating_water"]
    trace = run(doc.model, events_of(doc), SimOptions(creation_cap=3))
    assert conforms(trace, doc.behavior).ok
    # but a half-finished loop may not restart
    assert not conforms(fired_trace(["E1", "E1", "E2"]), doc.behavior).ok


def test_conforms_agrees_with_linear_extension_oracle():
    rng = random.Random(31)
    names = ["A", "B", "C", "D", "E"]
    for _ in range(200):
        count = rng.randint(1, 5)
        events = names[:count]
        edges = [
            (events[i], events[j])
            for i in range(count)
            for j in range(i + 1, count)
            if rng.random() < 0.4
        ]
        graph = BehaviorGraph(
            nodes=tuple(events),
            edges=tuple(BehaviorEdge(a, b) for a, b in edges),
        )
        fired = list(events)
        rng.shuffle(fired)
        expected = tuple(fired) in {
            tuple(p) for p in all_linear_extensions(tuple(fired), edges)
        }
        assert conforms(fired_trace(fired), graph).ok is expected


def test_partial_traces_only_constrain_fired_events():
    graph = BehaviorGraph(
        nodes=("A", "B", "C"),
        edges=(BehaviorEdge("A", "B"), BehaviorEdge("B", "C")),
    )
    # B never fires, so A and C are unordered relative to it but still
    # transitively free of each other under this graph's edge set.
    assert conforms(fired_trace(["A", "C"]), graph).ok
    assert conforms(fired_trace(["C", "A"]), graph).ok


# ``(ok, violation, step)`` of every draw below, hashed in order; recorded
# before ``conforms`` computed each loop body once.
CONFORMS_DIGEST = "c3b83fabc392b5bbae95c3d418095aaa63f4308ec1453af2e569d9d1659c894b"


def _random_chronology(rng: random.Random) -> tuple[BehaviorGraph, list[str]]:
    """A behavior graph over up to seven events and a firing sequence that
    repeats some of them. Most plain edges follow one hidden order and most
    repeat edges run against it; the rest give self-loops and cycles. The
    firings walk that order, re-run stretches of it (often a loop body
    between a repeat edge's head and tail), and are sometimes thinned out
    or have two neighbours swapped."""
    names = "ABCDEFG"[:rng.randint(1, 7)]
    order = list(names)
    rng.shuffle(order)
    edges = []
    for _ in range(rng.randint(0, 2 * len(names))):
        a, b = rng.choice(names), rng.choice(names)
        repeat = rng.random() < 0.3
        if rng.random() < 0.7:
            a, b = sorted((a, b), key=order.index, reverse=repeat)
        edges.append(BehaviorEdge(a, b, repeat))
    firings = list(order)
    for _ in range(rng.randint(0, 3)):
        loops = [(order.index(e.after), order.index(e.before)) for e in edges if e.repeat]
        if loops and rng.random() < 0.7:
            i, j = rng.choice(loops)
        else:
            i = rng.randrange(len(order))
            j = rng.randrange(i, len(order))
        firings += order[i:j + 1]
    if rng.random() < 0.5:
        firings = [name for name in firings if rng.random() < 0.8]
    if rng.random() < 0.3 and len(firings) > 1:
        k = rng.randrange(len(firings) - 1)
        firings[k], firings[k + 1] = firings[k + 1], firings[k]
    return BehaviorGraph(tuple(names), tuple(edges)), firings


def test_conforms_verdicts_on_random_chronologies_match_the_recorded_digest():
    rng = random.Random(61)
    digest = hashlib.sha256()
    refired_ok = 0
    for _ in range(3000):
        graph, firings = _random_chronology(rng)
        verdict = conforms(fired_trace(firings), graph)
        digest.update(repr((verdict.ok, verdict.violation, verdict.step)).encode())
        refired_ok += verdict.ok and len(set(firings)) < len(firings)
    assert refired_ok >= 100  # the draws do exercise repeat edges
    assert digest.hexdigest() == CONFORMS_DIGEST
