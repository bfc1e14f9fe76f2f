"""Seeded input generator for the benchmark.

Every generated document is a ``kind: "hypersurface"`` JSON input built from
one of the six catalog families in two steps:

1. an analytic reparametrization u_i -> u_i + eps_i sin(u_i) (1 + 0.1 u_j),
   with j the next coordinate (j = i when n = 1) and |eps_i| in [0.05, 0.15],
   so the coordinate change stays a diffeomorphism of the chart box;
2. a constant block isometry Q (+) B with Q in O(k+1) and B in O+(n-k+1, 1)
   applied to the position vector, which keeps the image on the model and on
   the upper hyperboloid sheet.

The results lie on the model by construction but have larger expression
DAGs than the catalog entries.  The family data below mirrors the package
catalog; it is copied rather than imported so the program sees only files.

The generator also writes one inadmissible ``kind: "structure"`` control: the
flat slice with lambda = -1 + c u1, which must make ``check`` exit with 1.
"""

import hashlib
import json
import math
import random
import re

# name -> (k, coords, box, base point, parametrization); mirrors the catalog
FAMILIES = {
    "geodesic_slice": (
        1, ("u1", "u2"), ((-0.9, 0.9), (-0.9, 0.9)), (0.1, -0.2),
        ("cos(u1)", "sin(u1)", "0", "sinh(u2)", "cosh(u2)")),
    "sphere_slice": (
        2, ("u1", "u2"), ((-0.9, 0.9), (-0.9, 0.9)), (-0.15, 0.25),
        ("cos(u1)", "sin(u1)", "0", "sinh(u2)", "cosh(u2)")),
    "diagonal_geodesic": (
        1, ("u1",), ((-1.0, 1.0),), (0.1,),
        (f"cos({2.0 ** -0.5!r}*u1)", f"sin({2.0 ** -0.5!r}*u1)",
         f"sinh({2.0 ** -0.5!r}*u1)", f"cosh({2.0 ** -0.5!r}*u1)")),
    "diagonal_cylinder": (
        1, ("u1", "u2"), ((-0.8, 0.8), (-0.8, 0.8)), (0.05, -0.1),
        ("cos(0.6*u1)", "sin(0.6*u1)", "sinh(u2)",
         "cosh(u2)*sinh(0.8*u1)", "cosh(u2)*cosh(0.8*u1)")),
    "perturbed_geodesic": (
        1, ("u1",), ((-1.0, 1.0),), (0.2,),
        ("cos(u1 + 0.2*sin(u1))", "sin(u1 + 0.2*sin(u1))",
         "sinh(u1 - 0.1*u1^2)", "cosh(u1 - 0.1*u1^2)")),
    "geodesic_slice_n3": (
        1, ("u1", "u2", "u3"),
        ((-0.4, 0.4), (-0.4, 0.4), (-0.4, 0.4)), (0.05, -0.1, 0.1),
        ("cos(u1)", "sin(u1)", "0", "u2", "u3", "sqrt(1 + u2^2 + u3^2)")),
}

_COORD_RE = re.compile(r"\bu([1-9])\b")


def _num(v):
    """Exact float literal that the expression grammar parses."""
    return f"({v!r})" if v < 0 else repr(v)


def _rotation(m, rng):
    """Random element of O(m): Givens rotations in every plane, maybe a flip."""
    R = [[float(i == j) for j in range(m)] for i in range(m)]
    for p in range(m):
        for q in range(p + 1, m):
            t = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(t), math.sin(t)
            for row in R:
                a, b = row[p], row[q]
                row[p], row[q] = c * a - s * b, s * a + c * b
    if m > 1 and rng.random() < 0.5:
        for row in R:
            row[0] = -row[0]
    return R


def _matmul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def block_isometry(n, k, rng):
    """Q (+) B with Q in O(k+1) and B in O+(n-k+1, 1) (timelike axis last)."""
    sphere, hyp = k + 1, n - k + 2
    B = [[float(i == j) for j in range(hyp)] for i in range(hyp)]
    spatial = _rotation(hyp - 1, rng)
    for i in range(hyp - 1):
        B[i][:hyp - 1] = spatial[i]
    t = rng.uniform(-0.5, 0.5)
    boost = [[float(i == j) for j in range(hyp)] for i in range(hyp)]
    boost[hyp - 2][hyp - 2] = boost[hyp - 1][hyp - 1] = math.cosh(t)
    boost[hyp - 2][hyp - 1] = boost[hyp - 1][hyp - 2] = math.sinh(t)
    B = _matmul(boost, B)
    Q = _rotation(sphere, rng)
    dim = n + 3
    M = [[0.0] * dim for _ in range(dim)]
    for i in range(sphere):
        M[i][:sphere] = Q[i]
    for i in range(hyp):
        M[sphere + i][sphere:] = B[i]
    return M


def hypersurface_document(family, rng):
    """One reparametrized, isometrically moved member of ``family``."""
    k, coords, box, base, x = FAMILIES[family]
    n = len(coords)
    phi = {}
    for i in range(n):
        j = (i + 1) % n
        eps = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15)
        phi[str(i + 1)] = (f"u{i + 1} + {_num(eps)}*sin(u{i + 1})"
                           f"*(1 + 0.1*u{j + 1})")
    moved = [_COORD_RE.sub(lambda m: f"({phi[m.group(1)]})", xa) for xa in x]
    M = block_isometry(n, k, rng)
    fields = []
    for row in M:
        terms = [f"{_num(c)}*({xb})" for c, xb in zip(row, moved)
                 if c != 0.0 and xb != "0"]
        fields.append(" + ".join(terms) if terms else "0")
    return {"kind": "hypersurface", "n": n, "k": k, "coords": list(coords),
            "domain": [list(iv) for iv in box], "base_point": list(base),
            "fields": {"x": fields}}


def control_document(rng):
    """Flat slice with a non-constant lambda: fails admission (exit 1)."""
    c = rng.uniform(0.01, 0.02)
    return {"kind": "structure", "n": 2, "k": 1, "coords": ["u1", "u2"],
            "domain": [[-0.9, 0.9], [-0.9, 0.9]], "base_point": [0.1, -0.2],
            "fields": {"g": [["1", "0"], ["0", "1"]],
                       "S": [["0", "0"], ["0", "0"]],
                       "f": [["1", "0"], ["0", "-1"]],
                       "U": ["0", "0"],
                       "lambda": f"-1 + {c!r}*u1"}}


def generate(seed):
    """All documents for ``seed``: {name: document}, in a fixed order."""
    docs = {}
    for family in FAMILIES:
        rng = random.Random(f"{seed}:{family}")
        docs[family] = hypersurface_document(family, rng)
    docs["control_lambda"] = control_document(random.Random(f"{seed}:control"))
    return docs


def write_documents(docs, directory):
    """Write each document as ``<name>.json``; return {name: (path, sha256)}."""
    out = {}
    for name, doc in docs.items():
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        path = directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        out[name] = (path, hashlib.sha256(text.encode()).hexdigest())
    return out
