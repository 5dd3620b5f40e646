import pytest

from fractions import Fraction

from algolab.dynkin import (
    FAMILIES,
    HereditaryDescriptor,
    ValuedDynkinGraph,
    _symmetrizers_from_gcm,
    coxeter_data,
    hereditary_descriptor,
    kronecker_quiver,
    linear_quiver,
    orientations,
    parse_graph,
    parse_quiver,
    positive_roots,
)
from algolab.errors import CyclicQuiver, InvalidParams, NotConnected
from algolab.linalg import identity, inverse, is_positive_definite, mat_mul, mat_pow, transpose

ROOT_COUNTS = {
    "A2": 3,
    "A3": 6,
    "A4": 10,
    "B2": 4,
    "B3": 9,
    "C3": 9,
    "D4": 12,
    "D5": 20,
    "E6": 36,
    "F4": 24,
    "G2": 6,
}


def test_coxeter_table_values():
    h, nu = coxeter_data(parse_graph("A4"))
    assert h == 5 and nu == {1: 4, 2: 3, 3: 2, 4: 1}
    h, nu = coxeter_data(parse_graph("E7"))
    assert h == 18 and all(nu[i] == i for i in nu)
    h, nu = coxeter_data(parse_graph("D4"))
    assert h == 6 and all(nu[i] == i for i in nu)
    h, nu = coxeter_data(parse_graph("D5"))
    assert h == 8 and nu[4] == 5 and nu[5] == 4 and nu[1] == 1
    h, nu = coxeter_data(parse_graph("E6"))
    assert h == 12 and nu[1] == 5 and nu[2] == 4 and nu[3] == 3 and nu[6] == 6
    assert coxeter_data(parse_graph("B4"))[0] == 8
    assert coxeter_data(parse_graph("G2"))[0] == 6


def test_nu_is_involution_everywhere():
    for name in ROOT_COUNTS:
        g = parse_graph(name)
        _, nu = coxeter_data(g)
        assert all(nu[nu[i]] == i for i in nu)


def test_rank_constraints():
    with pytest.raises(InvalidParams):
        ValuedDynkinGraph("E6", 7)
    with pytest.raises(InvalidParams):
        ValuedDynkinGraph("D", 3)
    with pytest.raises(InvalidParams):
        ValuedDynkinGraph("G2", 3)


def test_symmetrized_cartan_positive_definite():
    for name in ROOT_COUNTS:
        g = parse_graph(name)
        from algolab.linalg import is_positive_definite

        assert is_positive_definite(g.symmetrized_cartan())


def test_cartan_and_coxeter_a2():
    desc = hereditary_descriptor(parse_quiver("1->2"))
    assert desc.cartan == ((1, 1), (0, 1))
    assert desc.coxeter == ((-1, -1), (1, 0))
    assert desc.proj_dims == ((1, 1), (0, 1))
    assert desc.inj_dims == ((1, 0), (1, 1))
    assert desc.representation_finite


def test_one_vertex_quiver():
    from algolab.dynkin import Quiver

    desc = hereditary_descriptor(Quiver(1, ()))
    assert desc.cartan == ((1,),)
    assert desc.coxeter == ((-1,),)


def test_kronecker_cartan():
    desc = hereditary_descriptor(kronecker_quiver())
    assert desc.cartan == ((1, 2), (0, 1))
    assert not desc.representation_finite


def test_cyclic_quiver_rejected():
    with pytest.raises(CyclicQuiver):
        hereditary_descriptor(parse_quiver("1->2,2->1"))


def test_disconnected_quiver_rejected():
    from algolab.dynkin import Quiver

    with pytest.raises(NotConnected):
        hereditary_descriptor(Quiver(3, ((1, 2, (1, 1)),)))


def fraction_hereditary_descriptor(quiver):
    """The descriptor by inverting I - W and then C over Fractions, kept as
    the reference for the integer route."""
    quiver.topological_order()
    if not quiver.is_connected():
        raise NotConnected("quiver is not connected")
    n = quiver.n
    gcm = quiver.gcm()
    f = _symmetrizers_from_gcm(gcm)
    w = [[0] * n for _ in range(n)]
    for s, t, (_, b) in quiver.arrows:
        w[s - 1][t - 1] += b
    eye = identity(n)
    c = inverse([[eye[i][j] - w[i][j] for j in range(n)] for i in range(n)])
    cartan = tuple(tuple(int(x) for x in row) for row in c)
    cinv_t = transpose(inverse([list(r) for r in cartan]))
    scaled = [
        [Fraction(f[i]) * cinv_t[i][j] / f[j] for j in range(n)] for i in range(n)
    ]
    phi_q = mat_mul(scaled, [list(r) for r in cartan], n)
    phi = []
    for row in phi_q:
        out = []
        for x in row:
            x = -x
            if x.denominator != 1:
                raise InvalidParams("Coxeter matrix is not integral")
            out.append(int(x))
        phi.append(tuple(out))
    inj = []
    for i in range(n):
        col = []
        for j in range(n):
            x = Fraction(cartan[j][i] * f[i], f[j])
            if x.denominator != 1:
                raise InvalidParams("injective dimension vector is not integral")
            col.append(int(x))
        inj.append(tuple(col))
    sym = [[f[i] * gcm[i][j] for j in range(n)] for i in range(n)]
    return HereditaryDescriptor(
        quiver=quiver,
        cartan=cartan,
        coxeter=tuple(phi),
        symmetrizers=tuple(f),
        proj_dims=cartan,
        inj_dims=tuple(inj),
        representation_finite=is_positive_definite(sym),
    )


def _descriptor_outcome(build, quiver):
    try:
        desc = build(quiver)
    except InvalidParams as exc:
        return "raised", str(exc)
    matrices = (desc.cartan, desc.coxeter, desc.proj_dims, desc.inj_dims)
    # every entry an int, as the Fraction route converts them
    assert all(type(x) is int for m in matrices for row in m for x in row)
    return "value", matrices + (desc.symmetrizers, desc.representation_finite)


def test_descriptor_matches_the_fraction_route():
    quivers = [
        q
        for name in ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "B3", "C3", "F4", "G2"]
        for q in orientations(parse_graph(name))
    ]
    quivers += [kronecker_quiver(), parse_quiver("1->2,1->2,1->2")]
    quivers += [
        parse_quiver(text)
        for text in ["1->2(2,3)", "2->1(1,4)", "1->2(2,2),3->2(1,3)", "1->2,1->3,2->4,3->4"]
    ]
    for quiver in quivers:
        want = _descriptor_outcome(fraction_hereditary_descriptor, quiver)
        assert _descriptor_outcome(hereditary_descriptor, quiver) == want, quiver


def test_tau_inverse_on_a3():
    desc = hereditary_descriptor(parse_quiver("1->2,2->3"))
    assert desc.tau_inverse((0, 0, 1)) == (0, 1, 0)
    assert desc.tau_inverse((0, 1, 0)) == (1, 0, 0)
    assert desc.tau_inverse((0, 1, 1)) == (1, 1, 0)
    # tau is inverse to tau^-
    assert desc.tau((1, 1, 0)) == (0, 1, 1)


def test_valued_descriptor_b2():
    g = parse_graph("B2")
    desc = hereditary_descriptor(linear_quiver(g))
    assert desc.cartan == ((1, 2), (0, 1))
    assert desc.symmetrizers == (2, 1)
    assert desc.inj_dims == ((1, 0), (1, 1))
    assert desc.tau_inverse((0, 1)) == (1, 1)
    assert desc.tau_inverse((1, 2)) == (1, 0)


def test_root_counts():
    for name, count in ROOT_COUNTS.items():
        rs = positive_roots(parse_graph(name))
        assert len(rs) == count, name
        assert len(set(rs.positive_roots)) == count


def test_roots_match_brute_force_q_search():
    # independent oracle: exhaustive search of q(v) in the symmetrizer set
    for name in ["A2", "A3", "D4", "B3", "G2"]:
        g = parse_graph(name)
        f = set(g.symmetrizers())
        n = g.rank
        found = set()
        bound = 6

        def walk(i, vec):
            if i == n:
                if any(vec) and g.tits_q(vec) in f:
                    found.add(tuple(vec))
                return
            for val in range(bound + 1):
                walk(i + 1, vec + [val])

        walk(0, [])
        assert found == set(positive_roots(g).positive_roots), name


def test_a2_a3_roots_explicit():
    assert set(positive_roots(parse_graph("A2")).positive_roots) == {
        (1, 0),
        (0, 1),
        (1, 1),
    }
    assert len(positive_roots(parse_graph("A3"))) == 6


def test_coxeter_matrix_order_divides_2h():
    for name in ["A2", "A3", "A4", "D4", "D5", "E6", "B3", "C3", "F4", "G2"]:
        g = parse_graph(name)
        h = g.coxeter_number()
        for quiver in orientations(g):
            phi = [list(r) for r in hereditary_descriptor(quiver).coxeter]
            assert mat_pow(phi, h) == identity(g.rank), (name, quiver)


def test_phi_orbit_stays_in_signed_roots():
    for name in ["A3", "D4", "B3", "G2"]:
        g = parse_graph(name)
        roots = set(positive_roots(g).positive_roots)
        signed = roots | {tuple(-x for x in v) for v in roots}
        for quiver in orientations(g):
            desc = hereditary_descriptor(quiver)
            for v in roots:
                w = v
                for _ in range(2 * g.coxeter_number()):
                    w = desc.tau_inverse(w)
                    assert w in signed, (name, v, w)


def test_orientation_count():
    assert len(list(orientations(parse_graph("A3")))) == 4
    assert len(list(orientations(parse_graph("D4")))) == 8


def test_parse_forms():
    assert str(parse_graph("A4")) == "A4"
    assert str(parse_graph("E6")) == "E6"
    q = parse_quiver("1->2,2->3")
    assert q.n == 3 and len(q.arrows) == 2
    assert parse_quiver("1->2(1,2)").arrows[0][2] == (1, 2)
    with pytest.raises(InvalidParams):
        parse_graph("H3")
    with pytest.raises(InvalidParams):
        parse_quiver("nonsense")


def test_quiver_json_roundtrip_text():
    q = parse_quiver("1->2,2->3,2->4")
    j = q.to_json()
    assert j["vertices"] == 4 and len(j["arrows"]) == 3
