"""Martingale couplings, the mod-1 family, and the p-value synthesizer."""

import json
import re

import numpy as np
import pytest
from scipy.special import expit, ndtr

from hypothesis import given, settings
from hypothesis import strategies as st

from subuniform import (ConditionalLaw, EmpiricalSample, IntegratedDF, RngStream, SingularRow,
                        SubUniformDist, SyntheticPPPModel, TransportInfeasible,
                        UniformMixRow, discretize, dominates_cx,
                        explicit_p2alpha_coupling, ks_distance, left_curtain_coupling,
                        mod1_family, p2alpha, synthesize_ppp, uniform_coupling, uniform_idf)
from subuniform.coupling import G_CHOICES
from _oracles import ks_statistic

UNIFORM = SubUniformDist("uniform01")


# ------------------------------------------------------------------ rows and explicit couplings

def test_uniform_coupling_is_singular():
    law = uniform_coupling()
    assert not law.atom_rows
    row = law.entry(0.3)
    assert isinstance(row, SingularRow)
    assert row.mean() == 0.3


def test_explicit_p2alpha_rows():
    law = explicit_p2alpha_coupling(0.1)
    atom = law.entry(0.1)
    assert isinstance(atom, UniformMixRow)
    assert atom.mean() == pytest.approx(0.1, abs=1e-12)   # uniform[0, 0.2]
    assert atom.cdf(0.1) == pytest.approx(0.5)
    assert isinstance(law.entry(0.7), SingularRow)        # p in [2a, 1] rides along
    assert law.martingale_residual() <= 1e-9


def test_explicit_p2alpha_uniform_marginal():
    # P ~ target, S | P ~ coupling: the S-marginal must be uniform
    gen = RngStream(seed=90).generator()
    model = synthesize_ppp(p2alpha(0.1), rng=RngStream(seed=90))
    _p, s = model.draw_joint(gen, 400_000)
    assert ks_distance(UNIFORM, EmpiricalSample(s)) <= 0.004


def test_row_outside_domain():
    law = explicit_p2alpha_coupling(0.1)
    with pytest.raises(ValueError):
        law.entry(0.05)  # below the atom: not a support point of the P-marginal


# ------------------------------------------------------------------ mod-1 family

def test_mod1_zero_shift_is_identity():
    row = UniformMixRow(((0.0, 0.4, 1.0),))
    for s in (0.01, 0.2, 0.39):
        assert mod1_family(row, lambda t: 0.0, 1.7, s) == pytest.approx(s, abs=1e-12)


def test_mod1_half_shift_boundary():
    # F(s) = 1/2 shifted by 1/2 gives 1.0, which wraps to 0: back to the left edge
    row = UniformMixRow(((0.0, 0.5, 1.0),))
    out = mod1_family(row, lambda t: 0.5, 0.0, 0.25)
    assert out == pytest.approx(0.0, abs=1e-12)


def test_mod1_singular_rows_ignore_t():
    for t in (-3.0, 0.0, 5.0):
        assert mod1_family(SingularRow(0.7), lambda u: 0.3, t, 0.7) == 0.7


def test_mod1_rejects_s_outside_support():
    row = UniformMixRow(((0.0, 0.4, 1.0),))
    with pytest.raises(ValueError):
        mod1_family(row, lambda t: 0.0, 0.0, 0.7)


def test_mod1_output_over_t_has_row_law():
    # as t varies with law G, the shifted value keeps the row's distribution
    row = UniformMixRow(((0.0, 0.2, 0.5), (0.6, 1.0, 0.5)))
    gen = RngStream(seed=91).generator()
    u = gen.random(50_000)
    ts = np.log(u) - np.log1p(-u)  # logistic draws, G = expit
    s_fixed = 0.1
    vals = np.array([mod1_family(row, expit, float(t), s_fixed) for t in ts])
    assert ks_statistic(EmpiricalSample(vals), row.cdf) <= 0.01


def test_g_law_cdfs_match_scipy():
    # the closed forms agree with scipy's expit and ndtr, the oracles here
    gen = np.random.default_rng(3)
    ts = np.concatenate([[0.0, -800.0, 800.0, -40.0, 40.0, 1e-300, -1e-300],
                         gen.standard_normal(4000) * 3.0, gen.uniform(-800.0, 800.0, 4000),
                         np.linspace(-40.0, 40.0, 4001)])
    for name, oracle in (("logistic", expit), ("normal", ndtr)):
        cdf = G_CHOICES[name]
        got = np.array([cdf(float(t)) for t in ts])
        assert np.max(np.abs(got - oracle(ts))) <= 4.4e-16, name


# ------------------------------------------------------------------ left-curtain coupling

def _assert_exact_coupling(law):
    """S-marginal uniform and rows centred on their atoms, to rounding."""
    slabs = sorted((lo, hi) for _p, _m, row in law.atom_rows for lo, hi, _w in row.intervals)
    ends = np.array(sorted({e for slab in slabs for e in slab}))
    s_cdf = sum(mass * row.cdf(ends) for _p, mass, row in law.atom_rows)
    assert np.max(np.abs(s_cdf - ends)) <= 1e-12
    assert law.martingale_residual() <= 1e-12
    # slabs of different rows are disjoint (and so are a row's own slabs)
    assert all(prev[1] <= nxt[0] for prev, nxt in zip(slabs, slabs[1:]))


def test_transport_forced_split():
    law = left_curtain_coupling([0.5], [1.0])
    assert law.atom_rows == ((0.5, 1.0, UniformMixRow(((0.0, 1.0, 1.0),))),)


def test_transport_two_point_source_to_uniform():
    law = left_curtain_coupling([0.25, 0.75], [0.5, 0.5])
    assert [row.intervals for _p, _m, row in law.atom_rows] == [((0.0, 0.5, 1.0),),
                                                                ((0.5, 1.0, 1.0),)]
    _assert_exact_coupling(law)


def test_transport_rejects_wrong_order():
    # atoms at 0 and 1 are above the uniform law in convex order: no coupling exists
    with pytest.raises(TransportInfeasible) as err:
        left_curtain_coupling([0.0, 1.0], [0.5, 0.5])
    assert err.value.witness is not None


def test_transport_tight_mixture():
    # the atom and the first piece use up [0, 0.6] exactly
    tight = SubUniformDist("mixture", atoms=((0.1, 0.2),),
                           pieces=((0.2, 0.6, 0.4), (0.6, 1.0, 0.4)))
    model = synthesize_ppp(tight, rng=RngStream(seed=104))
    assert model.meta["path"] == "left-curtain"
    _assert_exact_coupling(model.coupling)


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=6, unique=True),
       as_atom=st.lists(st.booleans(), min_size=7, max_size=7))
def test_transport_collapsed_cell_mixtures(cuts, as_atom):
    # collapsing cells of [0, 1] to atoms at their midpoints is a convex-order
    # reduction of the uniform law, so these are sub-uniform and often tight
    edges = [0.0]
    for c in sorted(cuts):
        if c - edges[-1] >= 1e-3:
            edges.append(c)
    edges.append(1.0)
    cells = list(zip(edges[:-1], edges[1:], as_atom))
    dist = SubUniformDist("mixture",
                          atoms=tuple(((lo + hi) / 2.0, hi - lo) for lo, hi, a in cells if a),
                          pieces=tuple((lo, hi, hi - lo) for lo, hi, a in cells if not a))
    _assert_exact_coupling(left_curtain_coupling(*discretize(dist, 64)))


# ------------------------------------------------------------------ synthesizer

def test_synthesize_uniform_target():
    model = synthesize_ppp(SubUniformDist("uniform01"), rng=RngStream(seed=92))
    assert model.meta["path"] == "explicit-uniform"
    pvals = model.draw_pvalues(RngStream(seed=93).generator(), 200_000)
    assert ks_distance(UNIFORM, EmpiricalSample(pvals)) <= 0.004


def test_synthesize_p2alpha_target():
    model = synthesize_ppp(p2alpha(0.1), rng=RngStream(seed=94))
    assert model.meta["path"] == "explicit-p2alpha"
    samp = EmpiricalSample(model.draw_pvalues(RngStream(seed=95).generator(), 400_000))
    assert samp.atom_frequency(0.1) == pytest.approx(0.2, abs=0.003)
    assert samp.tail_prob(0.1) == pytest.approx(0.2, abs=0.003)
    assert ks_distance(p2alpha(0.1), samp) <= 0.004
    assert model.coupling.martingale_residual() <= 1e-6


def test_synthesize_beta22_target_via_transport():
    model = synthesize_ppp(SubUniformDist("beta22"), rng=RngStream(seed=96))
    assert model.meta["path"] == "left-curtain"
    assert model.meta["discretization_ks"] <= 0.005
    assert model.coupling.martingale_residual() <= 1e-12
    _assert_exact_coupling(model.coupling)
    gen = RngStream(seed=97).generator()
    pvals, svals = model.draw_joint(gen, 200_000)
    assert ks_distance(SubUniformDist("beta22"), EmpiricalSample(pvals)) <= 0.01
    assert ks_distance(UNIFORM, EmpiricalSample(svals)) <= 0.004
    # realized p-values stay sub-uniform even after discretization
    emp = IntegratedDF.from_samples(pvals)
    assert dominates_cx(emp, uniform_idf()).holds


def test_synthesize_beta22_discretization_ks_is_exact():
    model = synthesize_ppp(SubUniformDist("beta22"), rng=RngStream(seed=96))
    assert model.meta["discretization_ks"] == pytest.approx(0.0021665, abs=1e-7)
    # a grid misses the CDF jumps at the atoms and reads lower
    values, masses = discretize(SubUniformDist("beta22"), 256)
    grid = np.linspace(0.0, 1.0, 2049)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    on_grid = np.max(np.abs(cum[np.searchsorted(values, grid, side="right")]
                            - SubUniformDist("beta22").cdf(grid)))
    assert model.meta["discretization_ks"] >= on_grid


def test_synthesize_rejects_non_sub_uniform():
    bad = SubUniformDist("mixture", atoms=((0.9, 1.0),), pieces=())
    with pytest.raises(ValueError, match="not sub-uniform"):
        synthesize_ppp(bad, rng=RngStream(seed=98))


def test_synthesize_rejects_violation_between_nodes_up_front():
    # sub-uniform everywhere except near x = 0.5, where the gap is 1e-7
    bad = SubUniformDist("mixture", atoms=((0.25 - 2e-7, 0.5), (0.75 + 2e-7, 0.5)))
    with pytest.raises(ValueError, match="not sub-uniform") as info:
        synthesize_ppp(bad, rng=RngStream(seed=98))
    assert not isinstance(info.value, TransportInfeasible)


def test_synthetic_model_exact_ppp_and_conditional_sf():
    model = synthesize_ppp(p2alpha(0.1), rng=RngStream(seed=99))
    gen = RngStream(seed=100).generator()
    d = (0.05, 0.1)  # a point inside the atom row
    assert model.exact_ppp(d) == pytest.approx(0.1, abs=1e-9)
    # averaging the conditional survival over theta ~ G recovers the p-value
    ts = gen.logistic(size=50_000)  # theta ~ G, the model's logistic law
    vals = np.array([model.conditional_sf(float(t), d) for t in ts])
    assert vals.mean() == pytest.approx(0.1, abs=0.005)
    # and the values themselves follow the row law uniform[0, 0.2]
    assert ks_statistic(EmpiricalSample(vals), lambda x: np.clip(x / 0.2, 0.0, 1.0)) <= 0.01
    # discrepancy is a decreasing transform of the conditional survival
    assert model.discrepancy(d, 1.3) == pytest.approx(-np.log(model.conditional_sf(1.3, d)))


def test_synthetic_model_singular_exact_ppp():
    model = synthesize_ppp(SubUniformDist("uniform01"), rng=RngStream(seed=101))
    assert model.exact_ppp((0.42, 0.42)) == 0.42


def test_synthetic_model_json_replay():
    for target in (SubUniformDist("uniform01"), p2alpha(0.25), SubUniformDist("beta22")):
        model = synthesize_ppp(target, rng=RngStream(seed=102))
        clone = SyntheticPPPModel.from_json(model.to_json())
        assert clone == model and clone.to_json() == model.to_json()
        a = model.draw_pvalues(RngStream(seed=103).generator(), 20_000)
        b = clone.draw_pvalues(RngStream(seed=103).generator(), 20_000)
        assert np.array_equal(a, b)


def test_hand_built_singular_atom_row_round_trips():
    # an atom row that is a SingularRow: the singular branches of to_payload
    # and from_payload, and SingularRow.sample in draw_joint
    coupling = ConditionalLaw(atom_rows=((0.25, 0.5, UniformMixRow(((0.0, 0.5, 1.0),))),
                                         (0.75, 0.5, SingularRow(0.75))))
    model = SyntheticPPPModel(target=SubUniformDist("mixture", atoms=((0.25, 0.5), (0.75, 0.5))),
                              coupling=coupling)
    assert model.to_payload()["coupling"]["atom_rows"][1]["row"] == {"kind": "singular", "at": 0.75}
    clone = SyntheticPPPModel.from_json(model.to_json())
    assert clone == model
    pvals, svals = model.draw_joint(RngStream(seed=104).generator(), 1000)
    for again in (clone.draw_joint(RngStream(seed=104).generator(), 1000),
                  _draw_joint_row_masks(model, RngStream(seed=104).generator(), 1000)):
        assert np.array_equal(pvals, again[0]) and np.array_equal(svals, again[1])
    singular = pvals == 0.75
    assert 0 < np.count_nonzero(singular) < 1000
    assert np.all(svals[singular] == 0.75) and np.all(svals[~singular] <= 0.5)


def _malformed_models():
    good = synthesize_ppp(p2alpha(0.25), rng=RngStream(seed=102)).to_payload()
    row = good["coupling"]["atom_rows"][0]

    def with_rows(rows):
        return json.dumps({**good, "coupling": {**good["coupling"], "atom_rows": rows}})

    def with_slabs(intervals):
        return with_rows([{**row, "row": {"kind": "uniform_mix", "intervals": intervals}}])

    no_row = {k: v for k, v in row.items() if k != "row"}
    spans = [*good["coupling"]["singular_spans"], [0.7, 0.7]]
    return [
        ('{"coupling": {}}', "target"),
        ("[]", "object"),
        (with_rows(5), "atom_rows"),
        (with_rows([no_row]), "atom_rows[0].row"),
        (with_rows([{**row, "p": "abc"}]), "atom_rows[0].p"),
        (with_rows([{**row, "mass": None}]), "atom_rows[0].mass"),
        (with_slabs(3), "atom_rows[0].row"),
        (with_rows([{**row, "row": {"kind": "beta"}}]), "atom_rows[0].row: ValueError(\"unknown"),
        (with_slabs([]), "atom_rows[0].row: ValueError('a uniform-mix row needs"),
        (with_slabs([[0.5, 0.2, 1.0]]), "atom_rows[0].row: ValueError('bad slab"),
        (with_slabs([[0.0, 0.5, 0.5], [0.4, 0.9, 0.5]]),
         "atom_rows[0].row: ValueError('slabs must be sorted"),
        (with_slabs([[0.0, 0.5, 0.0], [0.5, 1.0, 1.0]]),
         "atom_rows[0].row: ValueError('slab weights must be positive"),
        (with_slabs([[0.0, 0.5, 0.5]]), "atom_rows[0].row: ValueError('slab weights sum to"),
        (with_rows([{**row, "mass": 0}]), "coupling.atom_rows[0].mass: ValueError('atom mass"),
        (json.dumps({**good, "coupling": {**good["coupling"], "singular_spans": spans}}),
         "coupling.singular_spans[1]: ValueError('bad singular span"),
        (json.dumps({**good, "meta": ["explicit-p2alpha"]}), "field meta: not an object"),
        (json.dumps({**good, "coupling": 7}), "coupling"),
        (json.dumps({**good, "target": {"variant": "p2alpha"}}), "target"),
        (json.dumps({**good, "seed": "x"}), "seed"),
        (json.dumps({**good, "g_name": ["logistic"]}), "g_name"),
    ]


@pytest.mark.parametrize("text, field", _malformed_models())
def test_synthetic_model_json_rejects_malformed_input(text, field):
    with pytest.raises(ValueError, match=re.escape(field)):
        SyntheticPPPModel.from_json(text)


def _draw_joint_row_masks(model, gen, n):
    """draw_joint of a left-curtain model with one boolean mask per row."""
    atom_rows = model.coupling.atom_rows
    cum = np.cumsum([mass for _p, mass, _row in atom_rows])
    cum[-1] = 1.0
    idx = np.searchsorted(cum, gen.random(n), side="right")
    means = np.array([row.mean() for _p, _mass, row in atom_rows])
    svals = np.empty(n)
    for k, (_p, _mass, row) in enumerate(atom_rows):
        sel = idx == k
        cnt = int(np.count_nonzero(sel))
        if cnt:
            svals[sel] = row.sample(gen, cnt)
    return means[idx], svals


def test_draw_joint_matches_row_masks():
    # one stable sort of the row labels draws the same numbers into the same slots
    targets = (SubUniformDist("beta22"),
               SubUniformDist("mixture", atoms=((0.1, 0.2),),
                              pieces=((0.2, 0.6, 0.4), (0.6, 1.0, 0.4))))
    for i, target in enumerate(targets):
        model = synthesize_ppp(target, rng=RngStream(seed=70 + i))
        assert not model.coupling.singular_spans
        for n in (1, 5, 20_000):
            got = model.draw_joint(RngStream(seed=80 + i).generator(), n)
            want = _draw_joint_row_masks(model, RngStream(seed=80 + i).generator(), n)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("target", [SubUniformDist("beta22"), p2alpha(0.2),
                                    SubUniformDist("uniform01")],
                         ids=["beta22", "p2alpha", "uniform01"])
def test_draw_pvalues_is_draw_joint_without_s(target):
    # the S values are drawn last, so the p-values need none of them: the
    # row labels and means (beta22), or the target draws, their permutation
    # and the atom rows' means (p2alpha and uniform01, with singular spans)
    model = synthesize_ppp(target, rng=RngStream(seed=5))
    for n in (1, 7, 20_000):
        want = model.draw_joint(RngStream(seed=6).generator(), n)[0]
        got = model.draw_pvalues(RngStream(seed=6).generator(), n)
        assert np.array_equal(got, want)
        out = np.full(n, np.nan)
        assert model.draw_pvalues(RngStream(seed=6).generator(), n, out=out) is out
        assert np.array_equal(out, want)


def test_draw_joint_singular_span_memory():
    # p2alpha(0.2) has a singular span: draws and svals (2 * 8n) are live
    # while the atom rows' uniforms are drawn and mapped, in place, one piece
    # at a time, and pvals is filled after.  Measured 3.25 * 8n at n = 1e6;
    # 3.64 with pvals filled alongside the rows, and 5.927 when all 0.4n atom
    # draws were mapped at once.
    import tracemalloc

    n = 1_000_000
    model = synthesize_ppp(p2alpha(0.2), rng=RngStream(seed=3))
    assert model.coupling.singular_spans
    model.draw_joint(RngStream(seed=4).generator(), 10)  # first-use imports
    tracemalloc.start()
    try:
        model.draw_joint(RngStream(seed=4).generator(), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.4 * 8 * n


def test_uniform_mix_row_sample_is_inverse_of_uniforms():
    # sampling maps the uniforms piece by piece: the same floats as one call
    row = UniformMixRow(((0.0, 0.1, 0.25), (0.3, 0.7, 0.5), (0.8, 1.0, 0.25)))
    for n in (1, 16384, 16385, 3 * 16384 + 2):
        got = row.sample(RngStream(seed=60).generator(), n)
        assert np.array_equal(got, row.inverse(RngStream(seed=60).generator().random(n)))
