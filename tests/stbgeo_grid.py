"""The stbGeo (J, K) grid of acceptance criteria 5 and 7, shared with the
golden manifest."""

from boxball import INF, stbgeo
from boxball.capacities import is_finite


def stbgeo_grid():
    """(J, K, m, alpha, beta, mu, nu): mu = stbGeo on J and its closed-form
    dual nu = stbGeo on K, with the same parameters."""
    pairs = [(1, 2), (1, 3), (2, 4), (2, 6), (3, 5), (1, INF), (2, INF)]
    for J, K in pairs:
        for m in (1, 2):
            if (is_finite(J) and J % m) or (is_finite(K) and K % m):
                continue
            for alpha in (0.3, 0.5, 0.9, 1.0, 1.5):
                if alpha >= 1 and not (is_finite(J) and is_finite(K)):
                    continue
                for beta in (0.5, 1.0, 2.0):
                    if beta != 1.0:
                        if (is_finite(J) and J % (2 * m)) or \
                                (is_finite(K) and K % (2 * m)):
                            continue
                    NJ = INF if J == INF else J // m
                    NK = INF if K == INF else K // m
                    yield J, K, m, alpha, beta, stbgeo(NJ, alpha, beta, m), \
                        stbgeo(NK, alpha, beta, m)
