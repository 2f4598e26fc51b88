"""Independent oracles for cross-checking derived values.

Everything here is deliberately naive: dense sympy expressions and
textbook formulas with no shared code with the package under test.  The
exceptions, at the end, run on the package's own exact objects:
`symbolic_class_tower` replays the class tower with symbolic Lie brackets,
the path that flow series replaced; `apply_to`, `poisson` and
`abstract_tanaka_replay` are exact calculus that only tests call;
`rk4_on_lists` is the per-stage list RK4 loop that the generated RK4 step
replaced; `degree_loop_symmetry_basis` is the per-degree stabilization loop
that the weight-block path replaced; `iterated_square_deprolongation_degree`
is the deprolongation loop that reading the strong flag replaced;
`lyndon_structure_constants` is the per-degree tensor-algebra decomposition
that `free_nilpotent_symbol` replaced; `rf_rref` is the Gauss-Jordan
elimination over the function field that `QEchelon` replaced.
`monge_pfaffian_forms`, `pair`, `is_symmetry`, `bracket_close_check` and
`vanishing_subspace_dim` are exact checks that only tests call.
"""

import itertools

import sympy as sp


def sym_vars(names):
    return [sp.Symbol(n) for n in names]


def sym_bracket(a, b, coords):
    """Lie bracket of component lists of sympy expressions."""
    return [sum(a[j] * sp.diff(b[l], coords[j]) -
                b[j] * sp.diff(a[l], coords[j])
                for j in range(len(coords)))
            for l in range(len(coords))]


def sym_eval(comps, coords, point):
    subs = dict(zip(coords, point))
    return [sp.nsimplify(c).subs(subs) for c in comps]


def sym_rank(rows):
    if not rows:
        return 0
    return sp.Matrix(rows).rank()


def weak_flag_dims(frame, coords, point, max_depth=None):
    """Small growth vector at a point by brute-force left-normed words."""
    n = len(coords)
    if max_depth is None:
        max_depth = n
    levels = [list(frame)]
    values = [sym_eval(f, coords, point) for f in frame]
    dims = [sym_rank(values)]
    while len(dims) < max_depth:
        new = []
        for g in frame:
            for h in levels[-1]:
                new.append(sym_bracket(g, h, coords))
        levels.append(new)
        values += [sym_eval(f, coords, point) for f in new]
        dims.append(sym_rank(values))
        if dims[-1] == dims[-2]:
            dims.pop()
            break
        if dims[-1] == n:
            break
    return tuple(dims)


def strong_flag_dims(frame, coords, point, max_depth=None):
    """Strong derived flag dims by brute-force pairwise brackets."""
    n = len(coords)
    if max_depth is None:
        max_depth = n
    span = list(frame)
    values = [sym_eval(f, coords, point) for f in span]
    dims = [sym_rank(values)]
    while len(dims) < max_depth:
        new = [sym_bracket(a, b, coords)
               for a, b in itertools.combinations(span, 2)]
        span = span + new
        values += [sym_eval(f, coords, point) for f in new]
        dims.append(sym_rank(values))
        if dims[-1] == dims[-2]:
            dims.pop()
            break
        if dims[-1] == n:
            break
    return tuple(dims)


def monge_frame(n):
    """Monge model frame as sympy component lists (oracle copy)."""
    m = n - 3
    coords = sym_vars(["x"] + ["y%d" % i for i in range(m + 1)] + ["z"])
    x1 = [sp.Integer(0)] * n
    x1[0] = sp.Integer(1)
    for i in range(m):
        x1[1 + i] = coords[2 + i]
    x1[n - 1] = coords[1 + m] ** 2
    x2 = [sp.Integer(0)] * n
    x2[1 + m] = sp.Integer(1)
    return [x1, x2], coords


def cartan_jet_frame(k):
    coords = sym_vars(["x"] + ["y%d" % i for i in range(k + 1)])
    n = k + 2
    x1 = [sp.Integer(0)] * n
    x1[0] = sp.Integer(1)
    for i in range(k):
        x1[1 + i] = coords[2 + i]
    x2 = [sp.Integer(0)] * n
    x2[n - 1] = sp.Integer(1)
    return [x1, x2], coords


def poisson_oracle(f, g, base, momenta):
    return sum(sp.diff(f, p) * sp.diff(g, x) - sp.diff(f, x) * sp.diff(g, p)
               for x, p in zip(base, momenta))


def class_trace_oracle(n, frame, coords, base_point, momentum):
    """Cone flag dims trace at one covector, fully in sympy.

    Mirrors the definition: lift generators = vertical annihilator basis
    of D^2 plus corrected lifts of the frame Hamiltonians, then osculate
    with the characteristic field and take ranks at the covector.
    """
    momenta = sym_vars(["P%d" % i for i in range(n)])
    allv = list(coords) + list(momenta)
    x1, x2 = frame
    x3 = sym_bracket(x1, x2, coords)
    x4 = sym_bracket(x1, x3, coords)
    x5 = sym_bracket(x2, x3, coords)

    def ham(x):
        return sum(p * c for p, c in zip(momenta, x))

    h = [ham(x) for x in (x1, x2, x3, x4, x5)]

    def ham_field(f):
        return [sp.diff(f, p) for p in momenta] + \
               [-sp.diff(f, x) for x in coords]

    xc = [sp.expand(h[4] * a - h[3] * b)
          for a, b in zip(ham_field(h[0]), ham_field(h[1]))]
    # vertical annihilator fields of D^2 (generic solve)
    mat = sp.Matrix([x1, x2, x3])
    null = mat.nullspace()
    gens = []
    for v in null:
        gens.append([sp.Integer(0)] * n + [sp.simplify(v[i])
                                           for i in range(n)])
    # corrected lifts: vertical c with <c,X1>=0, <c,X2>=0, <c,X3>=rhs
    for ha, rhs in ((h[0], -h[3]), (h[1], -h[4])):
        cs = sym_vars(["C%d" % i for i in range(n)])
        sols = sp.solve([sum(c * a for c, a in zip(cs, x1)),
                         sum(c * a for c, a in zip(cs, x2)),
                         sum(c * a for c, a in zip(cs, x3)) - rhs],
                        cs, dict=True)
        sol = sols[0]
        free = {ci: sp.Integer(0) for ci in cs if ci not in sol}
        c = [sp.simplify(sol.get(ci, sp.Integer(0)).subs(free))
             for ci in cs]
        w = [a + b for a, b in zip(ham_field(ha),
                                   [sp.Integer(0)] * n + c)]
        gens.append(w)
    point = dict(zip(coords, base_point))
    point.update(zip(momenta, momentum))

    def val(f):
        return [sp.simplify(c).subs(point) for c in f]

    rows = [val(g) for g in gens]
    dims = [sym_rank(rows)]
    frontier = list(gens)
    for _ in range(n):
        new = []
        for g in frontier:
            new.append(sym_bracket(xc, g, allv))
        rows += [val(g) for g in new]
        r = sym_rank(rows)
        dims.append(r)
        if r == dims[-2]:
            break
        frontier = new
    return tuple(dims)


def symmetry_dim_oracle(frame, coords, forms, d):
    """Dimension of the degree-d polynomial symmetry space, brute force."""
    n = len(coords)
    monos = []
    for total in range(d + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            m = sp.Integer(1)
            for i in combo:
                m *= coords[i]
            monos.append(m)
    coeffs = []
    y = [sp.Integer(0)] * n
    for i in range(n):
        for m in monos:
            c = sp.Symbol("c_%d_%d" % (i, len(coeffs)))
            coeffs.append(c)
            y[i] += c * m
    rows = []
    for x in frame:
        br = sym_bracket(y, x, coords)
        for f in forms:
            e = sp.expand(sum(f[l] * br[l] for l in range(n)))
            if e != 0:
                rows.extend(sp.Poly(e, *coords).coeffs())
    a, _ = sp.linear_eq_to_matrix(rows, coeffs)
    return len(coeffs) - a.rank()


def symbolic_class_tower(dist, sample):
    """(nu, dims, level values) of the class iteration with symbolic
    brackets: ad_{X_C}^i of each lifted generator built by `lie_bracket`,
    denominators cleared after each bracket, and evaluated at the sample,
    with the frontier rule of the package (a generator is bracketed again
    only while its last bracket raised the rank)."""
    from rank2dist.geometry import VectorField, lie_bracket
    from rank2dist.kernel import QEchelon, clear_denominators
    from rank2dist.symplectic import _lift, char_field

    def cleared(vf):
        return VectorField(vf.chart, clear_denominators(list(vf.components)))

    n = dist.chart.dim
    _, xc = char_field(dist)
    lam = sample.point
    fields = [cleared(g) for g in _lift(dist)]
    values = [g.at(lam) for g in _lift(dist)]
    ech = QEchelon(2 * n)
    for v in values:
        ech.add(v)
    dims, levels = [ech.rank], [values]
    frontier = range(len(fields))
    for i in range(1, n + 1):
        new = []
        for j in frontier:
            fields[j] = cleared(lie_bracket(xc, fields[j]))
            v = fields[j].at(lam)
            if ech.add(v):
                new.append((j, v))
        dims.append(ech.rank)
        levels.append(levels[-1] + [v for _, v in new])
        if not new:
            return i - 1, tuple(dims), levels
        frontier = [j for j, _ in new]
    raise AssertionError("tower did not stabilize")


def apply_to(field, f):
    """Directional derivative X(f) of a scalar function."""
    from rank2dist.kernel import RatFunc

    out = RatFunc.from_const(field.chart.ring, 0)
    for comp, var in zip(field.components, field.chart.coords):
        if not comp.is_zero():
            out = out + comp * f.diff(var)
    return out


def poisson(ct, f, g):
    """{f, g} = sum_i (df/dp_i dg/dx_i - df/dx_i dg/dp_i) on the cotangent
    chart `ct`, so that {p_i, x_j} = delta_ij and {h_X, h_Y} = h_[X,Y]."""
    from rank2dist.kernel import RatFunc

    if f.ring is not ct.ring or g.ring is not ct.ring:
        raise ValueError("hamiltonians on a different cotangent chart")
    out = RatFunc.from_const(ct.ring, 0)
    for xi, pi in zip(ct.base.coords, ct.momenta):
        fp, gx = f.diff(pi), g.diff(xi)
        if not (fp.is_zero() or gx.is_zero()):
            out = out + fp * gx
        fx, gp = f.diff(xi), g.diff(pi)
        if not (fx.is_zero() or gp.is_zero()):
            out = out - fx * gp
    return out


def abstract_tanaka_replay(sym):
    """Run the tanaka adapted-basis procedure inside an abstract symbol.

    Returns the GradedSymbol the pointwise algorithm would produce for the
    flat model of `sym`, using the same deterministic word order.  Used by
    the flat-model round trip.
    """
    from rank2dist.distribution import _symbol_from_basis, _weak_levels

    _, levels = _weak_levels(sym.eval_word, lambda w: any(sym.eval_word(w)),
                             range(sym.dims[0]), sym.total_dim,
                             sym.total_dim)
    return _symbol_from_basis(levels, sym.eval_word)


def rk4_on_lists(dist, state, T, steps, residual_tol=1e-6):
    """(states, h_residuals, h45_floor) of fixed-step RK4 of the
    characteristic field from a float state, one list comprehension per
    stage, with the residual and |h4| + |h5| floor halts of
    `integrate_char` and no precondition checks."""
    from rank2dist.extremals import compile_floats
    from rank2dist.symplectic import char_field, hamiltonians

    rhs = compile_floats(char_field(dist)[1].components)
    h_values = compile_floats(hamiltonians(dist)[1])
    s = [float(v) for v in state]
    hv = h_values(s)
    states, res, floor = [s], [max(map(abs, hv[:3]))], [abs(hv[3]) +
                                                        abs(hv[4])]
    h = T / steps
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs([a + half * b for a, b in zip(s, k1)])
        k3 = rhs([a + half * b for a, b in zip(s, k2)])
        k4 = rhs([a + h * b for a, b in zip(s, k3)])
        s = [a + sixth * (((b1 + 2 * b2) + 2 * b3) + b4)
             for a, b1, b2, b3, b4 in zip(s, k1, k2, k3, k4)]
        hv = h_values(s)
        states.append(s)
        res.append(max(map(abs, hv[:3])))
        floor.append(abs(hv[3]) + abs(hv[4]))
        if res[-1] > residual_tol or floor[-1] <= 1e-9:
            break
    return states, res, floor


def degree_loop_symmetry_basis(dist, max_degree=8):
    """The degree-d symmetry basis at the first d where the dimensions at
    d and d+1 agree (d = 1, 2, ...), with `stabilized` and `stable_degree`
    set; each degree is solved from scratch by `symmetry_basis`."""
    from rank2dist.errors import PreconditionError
    from rank2dist.symmetry import symmetry_basis

    prev = symmetry_basis(dist, 1)
    for d in range(2, max_degree + 1):
        cur = symmetry_basis(dist, d)
        if cur.dim == prev.dim:
            prev.stabilized = True
            prev.stable_degree = prev.degree
            return prev
        prev = cur
    raise PreconditionError("symmetry dimension did not stabilize by "
                            "degree %d" % max_degree)


def iterated_square_deprolongation_degree(dist, q):
    """(s, terminal) of the deprolongation loop over iterated squares.

    The s-th iterated square E_s (frame plus pairwise brackets, pruned
    pointwise at q) is spanned by the words of the first s+1 levels of the
    strong flag at q; step s runs a fresh weak flag from those words and
    reads the cube, and on dimension n - s = 4 the growth, less s."""
    from rank2dist.distribution import FlagReport, _weak_levels
    from rank2dist.errors import PreconditionError
    from rank2dist.kernel import QEchelon

    n = dist.chart.dim
    dist.check_frame_at(q)
    ech = QEchelon(n)
    spanning = [w for w in range(dist.rank) if ech.add(dist.word_value(w, q))]
    levels = [list(spanning)]
    while len(levels) < n and ech.rank < n:
        new = [(a, b) for a, b in itertools.combinations(list(spanning), 2)
               if not dist.word_field((a, b)).is_zero() and
               ech.add(dist.word_value((a, b), q))]
        if not new:
            break
        spanning += new
        levels.append(new)
    for s in range(n + 1):
        words = [w for level in levels[:s + 1] for w in level]
        rep = FlagReport(*_weak_levels(
            lambda w: dist.word_value(w, q),
            lambda w: not dist.word_field(w).is_zero(),
            words, n, 3 if n - s > 4 else n))
        cube_s = rep.cube - s
        if cube_s == 5:
            return s, "cube5"
        if n - s == 4:
            growth = tuple(d - s for d in rep.dims)
            if growth == (2, 3, 4):
                return n - 4, "engel"
            raise PreconditionError(
                "deprolongation reached dimension 4 with growth %s"
                % (growth,))
        if cube_s < 4:
            raise PreconditionError(
                "deprolongation stalled: cube dimension %d at step %d"
                % (cube_s, s))
    raise PreconditionError("deprolongation did not end within %d steps"
                            % n)


def lyndon_structure_constants(step):
    """structure[a][b] = coordinates of [basis_a, basis_b] in the Lyndon
    basis of the free 2-generator Lie algebra truncated at `step`, each
    bracket of degree d decomposed over the expansions of the degree-d
    basis words, in a tensor algebra truncated at `step`."""
    from rank2dist.freelie import bracket_word, lyndon_basis
    from rank2dist.kernel import Q, q_coordinates

    def mul(a, b):
        out = {}
        for wa, ca in a.items():
            for wb, cb in b.items():
                if len(wa + wb) <= step:
                    out[wa + wb] = out.get(wa + wb, Q(0)) + ca * cb
        return out

    def commutator(a, b):
        ab, ba = mul(a, b), mul(b, a)
        out = {w: ab.get(w, Q(0)) - ba.get(w, Q(0)) for w in ab.keys() | ba}
        return {w: c for w, c in out.items() if c}

    def expand(word):
        if isinstance(word, int):
            return {(word,): Q(1)}
        return commutator(expand(word[0]), expand(word[1]))

    basis = lyndon_basis(step)
    expansions = [expand(bracket_word(w)) for w in basis]

    def decompose(elt, degree):
        idxs = [i for i, w in enumerate(basis) if len(w) == degree]
        words = sorted({w for i in idxs for w in expansions[i]})
        coordinates = q_coordinates([[expansions[i].get(w, Q(0))
                                      for w in words] for i in idxs],
                                    len(words))
        sol = (None if elt.keys() - set(words) else
               coordinates([elt.get(w, Q(0)) for w in words]))
        if sol is None:
            raise ValueError("element is not a Lie element of degree %d"
                             % degree)
        return list(zip(idxs, sol))

    n = len(basis)
    st = [[[Q(0)] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            d = len(basis[a]) + len(basis[b])
            if d > step:
                continue
            for i, c in decompose(commutator(expansions[a], expansions[b]),
                                  d):
                st[a][b][i] = c
                st[b][a][i] = -c
    return st


def monge_pfaffian_forms(n):
    """The n-2 annihilator one-forms of the Monge model:
    dy_i - y_{i+1} dx (0 <= i <= n-4) and dz - y_{n-3}^2 dx."""
    from rank2dist.geometry import OneForm
    from rank2dist.kernel import RatFunc
    from rank2dist.models import monge_model

    chart = monge_model(n).chart
    ring = chart.ring
    m = n - 3
    forms = []
    zero = RatFunc.from_const(ring, 0)
    one = RatFunc.from_const(ring, 1)
    for i in range(m):
        comps = [zero] * n
        comps[0] = -RatFunc.variable(ring, "y%d" % (i + 1))
        comps[1 + i] = one
        forms.append(OneForm(chart, comps))
    comps = [zero] * n
    ym = RatFunc.variable(ring, "y%d" % m)
    comps[0] = -(ym * ym)
    comps[n - 1] = one
    forms.append(OneForm(chart, comps))
    return forms


def pair(omega, x):
    """Pairing <omega, X> = sum_i omega_i X^i."""
    from rank2dist.geometry import _check_chart
    from rank2dist.kernel import RatFunc

    _check_chart(omega, x)
    out = RatFunc.from_const(x.chart.ring, 0)
    for wi, xi in zip(omega.components, x.components):
        if not (wi.is_zero() or xi.is_zero()):
            out = out + wi * xi
    return out


def is_symmetry(dist, y):
    """Exact check of the defining equations for one candidate field."""
    from rank2dist.geometry import lie_bracket
    from rank2dist.symmetry import annihilator_forms

    for x in dist.frame:
        b = lie_bracket(y, x)
        for f in annihilator_forms(dist):
            if not pair(f, b).is_zero():
                return False
    return True


def bracket_close_check(dist, basis):
    """True iff the bracket of every basis pair satisfies the symmetry
    equations exactly (checked against the equations, not the span)."""
    from rank2dist.geometry import lie_bracket

    for y1, y2 in itertools.combinations(basis.basis, 2):
        if not is_symmetry(dist, lie_bracket(y1, y2)):
            return False
    return True


def vanishing_subspace_dim(basis, q):
    """Dimension of the sub-span of basis fields vanishing at q (witness
    for the nilradical lower bound)."""
    from rank2dist.kernel import QEchelon

    vals = [f.at(q) for f in basis.basis]
    ech = QEchelon(len(vals[0]) if vals else 0)
    for v in vals:
        ech.add(v)
    return basis.dim - ech.rank


def _rf_pivot_degree(x):
    return x.num.total_degree() + x.den.total_degree()


def rf_rref(rows, ncols):
    """Reduced row echelon form over the function field.

    Pivot choice inside each column: lowest-degree nonzero entry (ties by
    row order), which keeps intermediate expression growth down.
    Returns (rows, pivot_cols).
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        best = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero():
                d = _rf_pivot_degree(mat[i][c])
                if best is None or d < best[0]:
                    best = (d, i)
        if best is None:
            continue
        pr = best[1]
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots
