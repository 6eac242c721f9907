import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import demandinv
from demandinv.accel import AccelConfig
from demandinv.datagen import (DynamicDgpParams, SeededRng, StaticDgpParams, draw_theta,
                               gen_dynamic_market, gen_nested_market, gen_static_market)
from demandinv.dynamic import DurableMarket, IvsGrid, ivs_solve, pf_solve
from demandinv.fixtures import SCHEMA_VERSION, market_from_json, market_to_json
from demandinv.rcnl import NestedMarket, rcnl_solve_inner
from demandinv.static_rcl import StaticMarket, solve_inner

CFG = AccelConfig(method="anderson", tolerance=1e-13, max_evaluations=1000)


def drawn(gen, params, seed):
    """Replication 0 of a DGP design at a parameter draw from the same stream."""
    rng = SeededRng(seed, 0).generator()
    inst = gen(params, rng)
    return inst.with_theta(draw_theta(inst.theta_true, rng))


def static_j250():
    return drawn(gen_static_market, StaticDgpParams(n_products=250), 4)


def assert_same_market(a, b):
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if is_dataclass(x):
            assert_same_market(x, y)
        else:
            assert np.array_equal(x, y), f.name


def solve_bytes(mkt, names):
    """The bytes of each named solve's point, delta and residual history."""
    out = []
    for name in names:
        if isinstance(mkt, StaticMarket):
            result, outcome = solve_inner(mkt, name, CFG)
        elif isinstance(mkt, NestedMarket):
            result, outcome = rcnl_solve_inner(mkt, name, CFG)
        elif name == "pf":
            result, outcome = pf_solve(mkt, 1.0, CFG)
        else:
            result, outcome = ivs_solve(mkt, 1.0, IvsGrid(), CFG)
        arrays = ((result,) if isinstance(result, np.ndarray)
                  else (result.value, result.delta, result.pr0))
        out.append((outcome.evaluations, outcome.termination, outcome.point.tobytes(),
                    np.array(outcome.residual_history).tobytes(),
                    *(a.tobytes() for a in arrays)))
    return out


DESIGNS = {
    "static-j25": (lambda: drawn(gen_static_market, StaticDgpParams(n_products=25), 9),
                   ("delta1", "V0")),
    "static-j250": (static_j250, ("delta1", "V1")),
    "static-2types": (lambda: drawn(gen_static_market,
                                    StaticDgpParams(n_products=250, n_draws=2), 7),
                      ("delta1", "V0", "kalouptsidi_mixed")),
    "nested-j75": (lambda: drawn(gen_nested_market, StaticDgpParams(n_products=75), 7),
                   ("delta1", "IV1")),
    "durable-t50": (lambda: drawn(gen_dynamic_market, DynamicDgpParams(horizon=50), 11),
                    ("pf",)),
    "durable-t25": (lambda: drawn(gen_dynamic_market, DynamicDgpParams(horizon=25), 11),
                    ("ivs",)),
    # the DGP's shares were Fortran-ordered and its mu strided, and this
    # market's pf solve took 334 evaluations (tolerance 1e-12) against 327
    # for its C-ordered fixture
    "durable-t25-seed13": (lambda: drawn(gen_dynamic_market, DynamicDgpParams(horizon=25),
                                         13), ("pf",)),
}


def market_arrays(mkt, name="market"):
    """(name, array) for every array a market holds, fields and derived
    values, nested markets and tuples of arrays included."""
    for key, value in vars(mkt).items():
        values = value if isinstance(value, tuple) else (value,)
        for k, v in enumerate(values):
            path = f"{name}.{key}" + (f"[{k}]" if isinstance(value, tuple) else "")
            if is_dataclass(v):
                yield from market_arrays(v, path)
            elif isinstance(v, np.ndarray):
                yield path, v


class TestRoundTrip:
    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_every_field_and_every_solve_come_back(self, design):
        build, names = DESIGNS[design]
        mkt = build()
        clone = market_from_json(market_to_json(mkt))
        assert_same_market(clone, mkt)
        assert solve_bytes(clone, names) == solve_bytes(mkt, names)

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_every_array_is_c_ordered_from_the_dgp_and_from_the_fixture(self, design):
        mkt = DESIGNS[design][0]()
        for source, market in (("dgp", mkt), ("fixture", market_from_json(market_to_json(mkt)))):
            arrays = dict(market_arrays(market))
            assert "market.mu" in arrays or "market.base.mu" in arrays
            for name, array in arrays.items():
                assert array.flags.c_contiguous, (source, name)

    def test_a_fortran_ordered_market_solves_as_the_c_ordered_one(self):
        mkt = static_j250()
        f_mkt = StaticMarket(mkt.shares, mkt.outside_share, np.asfortranarray(mkt.mu),
                             mkt.weights)
        clone = market_from_json(market_to_json(f_mkt))
        assert_same_market(clone, mkt)
        names = ("delta1", "V0", "V1")
        expected = solve_bytes(mkt, names)
        assert solve_bytes(f_mkt, names) == expected
        assert solve_bytes(clone, names) == expected

    def test_the_document_holds_each_field_in_the_market_layout(self):
        mkt = drawn(gen_dynamic_market, DynamicDgpParams(horizon=4, n_products=2,
                                                         n_draws=3), 11)
        doc = json.loads(market_to_json(mkt))
        assert list(doc) == ["schema_version", "kind", "shares", "outside_shares", "mu",
                             "weights", "beta", "pr0_init"]
        assert doc["schema_version"] == SCHEMA_VERSION == 2
        assert doc["kind"] == "DurableMarket"
        assert np.array(doc["mu"]).shape == mkt.mu.shape == (3, 2, 4)
        assert np.array(doc["shares"]).shape == (2, 4)

    def test_the_package_exports_the_pair(self):
        assert demandinv.market_to_json is market_to_json
        assert demandinv.market_from_json is market_from_json


def nested_doc():
    mkt = NestedMarket(StaticMarket([0.3, 0.3], 0.4, [[0.0, 1.0]], [1.0]), [0, 1], 0.5)
    return json.loads(market_to_json(mkt))


class TestRejections:
    def test_a_version_1_static_file(self):
        doc = {"schema_version": 1, "shares": [0.5], "outside_share": 0.5, "mu": [[0.0]],
               "weights": [1.0]}
        with pytest.raises(ValueError, match="schema_version 1 is not 2"):
            market_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kind", ["IvsGrid", "staticmarket", None, 3, ["StaticMarket"]])
    def test_an_unknown_kind(self, kind):
        doc = nested_doc()
        doc["kind"] = kind
        with pytest.raises(ValueError, match="kind"):
            market_from_json(json.dumps(doc))

    def test_a_missing_kind(self):
        doc = nested_doc()
        del doc["base"]["kind"]
        with pytest.raises(ValueError, match="fixture base kind None"):
            market_from_json(json.dumps(doc))

    @pytest.mark.parametrize("where", ["top", "base"])
    def test_an_unknown_key_at_either_level(self, where):
        doc = nested_doc()
        (doc if where == "top" else doc["base"])["T"] = 1
        name = "fixture" if where == "top" else "fixture base"
        with pytest.raises(ValueError, match=rf"unknown {name} keys \['T'\]"):
            market_from_json(json.dumps(doc))

    def test_a_schema_version_inside_the_base(self):
        doc = nested_doc()
        doc["base"]["schema_version"] = 2
        with pytest.raises(ValueError, match=r"unknown fixture base keys \['schema_version'\]"):
            market_from_json(json.dumps(doc))

    def test_missing_keys_are_named(self):
        doc = nested_doc()
        del doc["base"]["weights"], doc["base"]["mu"]
        with pytest.raises(ValueError,
                           match=r"fixture base is missing the keys \['mu', 'weights'\]"):
            market_from_json(json.dumps(doc))

    @pytest.mark.parametrize("base", [[0.3, 0.3], "StaticMarket", None])
    def test_a_base_that_is_no_market(self, base):
        doc = nested_doc()
        doc["base"] = base
        with pytest.raises(ValueError, match="base must be a StaticMarket"):
            market_from_json(json.dumps(doc))

    def test_a_base_of_another_kind(self):
        durable = DurableMarket([[0.6, 0.6]], [0.4, 0.4], np.zeros((1, 1, 2)), [1.0], 0.5)
        doc = nested_doc()
        doc["base"] = {k: v for k, v in json.loads(market_to_json(durable)).items()
                       if k != "schema_version"}
        with pytest.raises(ValueError, match="base must be a StaticMarket, not DurableMarket"):
            market_from_json(json.dumps(doc))

    def test_the_constructors_check_the_values(self):
        doc = nested_doc()
        doc["base"]["weights"] = [2.0]
        with pytest.raises(ValueError, match="weights must be non-negative and sum to 1"):
            market_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[]", "2", '"StaticMarket"'])
    def test_a_document_that_is_no_object(self, text):
        with pytest.raises(ValueError, match="schema_version None"):
            market_from_json(text)

    def test_the_writer_takes_markets_only(self):
        with pytest.raises(ValueError, match="IvsGrid is not a market kind"):
            market_to_json(IvsGrid())
