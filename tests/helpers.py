"""Independent oracles and random-curve generators used across the tests.

Everything here is deliberately written from first principles (plain loops,
shoelace formula, finite differences, Jacobi rotations) so it shares
no code path with the library under test.
"""

from __future__ import annotations

import numpy as np

from polyvar import DiscreteCurve


def brute_length(points: np.ndarray) -> float:
    n = len(points)
    total = 0.0
    for k in range(n):
        dx = points[(k + 1) % n, 0] - points[k, 0]
        dy = points[(k + 1) % n, 1] - points[k, 1]
        total += np.sqrt(dx * dx + dy * dy)
    return total


def shoelace(points: np.ndarray) -> float:
    n = len(points)
    acc = 0.0
    for k in range(n):
        x0, y0 = points[k]
        x1, y1 = points[(k + 1) % n]
        acc += x0 * y1 - x1 * y0
    return 0.5 * acc


def oracle_volume(points: np.ndarray, sigma: int) -> float:
    """Signed area in the library's convention: -sigma * shoelace."""
    return -sigma * shoelace(points)


def central_gradient(f, points: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of f over all vertex coordinates."""
    grad = np.zeros_like(points, dtype=float)
    for k in range(len(points)):
        for c in range(2):
            plus = points.copy()
            plus[k, c] += h
            minus = points.copy()
            minus[k, c] -= h
            grad[k, c] = (f(plus) - f(minus)) / (2.0 * h)
    return grad


def second_derivative(f, h: float) -> float:
    """Fourth-order five-point second derivative of f: R -> R at 0."""
    return (
        -f(2.0 * h) + 16.0 * f(h) - 30.0 * f(0.0) + 16.0 * f(-h) - f(-2.0 * h)
    ) / (12.0 * h * h)


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index pairs (p < q) of each round of a round-robin tournament on 0..n-1.

    Every pair meets exactly once over the rounds, and the pairs of one round
    are disjoint.  An odd n gets a phantom player n; its partner sits out.
    """
    players = list(range(n + n % 2))
    half = len(players) // 2
    rounds = []
    for _ in range(len(players) - 1):
        pairs = [(min(x, y), max(x, y)) for x, y in zip(players[:half], players[:half - 1:-1])]
        pairs = [pair for pair in pairs if pair[1] < n]
        if pairs:
            p, q = zip(*pairs)
            rounds.append((np.array(p), np.array(q)))
        players = [players[0], players[-1]] + players[1:-1]
    return rounds


def jacobi_eigenvalues(matrices: np.ndarray, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each of a stack (b, n, n) of them, by Jacobi rotations, sorted.

    Parallel ordering (Brent & Luk, 1985): a sweep is the n - 1 rounds of a
    round robin, and the n/2 disjoint rotations of a round are applied in one
    array step, to every matrix of the stack at once.  The diagonal takes
    Rutishauser's update a_pp - t a_pq, a_qq + t a_pq, and the pivot is set
    to exactly zero.  Sweeps stop once every matrix is diagonal to round-off.
    """
    a = np.array(matrices, dtype=float)
    single = a.ndim == 2
    if single:
        a = a[None]
    n = a.shape[-1]
    scale = (np.sqrt(np.sum(a * a, axis=(1, 2))) + 1.0)[:, None]
    below = np.tril_indices(n, -1)
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(a[:, below[0], below[1]] ** 2, axis=1))
        if np.all(off <= 1e-15 * scale[:, 0]):
            break
        for p, q in rounds:
            apq = a[:, p, q]
            app = a[:, p, p]
            aqq = a[:, q, q]
            rotate = np.abs(apq) > 1e-18 * scale
            tau = 0.5 * (aqq - app) / np.where(rotate, apq, 1.0)
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            t = np.where(rotate, t, 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            rp = a[:, p, :]
            rq = a[:, q, :]
            a[:, p, :] = c[..., None] * rp - s[..., None] * rq
            a[:, q, :] = s[..., None] * rp + c[..., None] * rq
            cp = a[:, :, p]
            cq = a[:, :, q]
            a[:, :, p] = c[:, None] * cp - s[:, None] * cq
            a[:, :, q] = s[:, None] * cp + c[:, None] * cq
            a[:, p, p] = app - t * apq
            a[:, q, q] = aqq + t * apq
            a[:, p, q] = 0.0
            a[:, q, p] = 0.0
    values = np.sort(np.diagonal(a, axis1=1, axis2=2), axis=1)
    return values[0] if single else values


def random_star_polygon(rng, n: int, sigma: int = -1) -> DiscreteCurve:
    """Star-shaped polygon with jittered angles and radii; no tiny edges."""
    jitter = rng.uniform(-0.4, 0.4, size=n)
    angles = 2.0 * np.pi * (np.arange(n) + jitter) / n
    radii = rng.uniform(0.7, 1.3, size=n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    pts += rng.uniform(-1.0, 1.0, size=2)
    return DiscreteCurve(pts, closed=True, sigma=sigma)


def random_equilateral_polygon(rng, n: int, sigma: int = -1) -> DiscreteCurve:
    """Closed polygon with all edges of length exactly 1 (up to round-off).

    Walk n-2 near-regular unit steps, then close with two unit edges through
    the intersection of two unit circles.
    """
    for _ in range(200):
        headings = 2.0 * np.pi * np.arange(n - 2) / n + rng.uniform(-0.5, 0.5, size=n - 2)
        steps = np.column_stack([np.cos(headings), np.sin(headings)])
        pts = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
        q = pts[-1]
        d = np.hypot(q[0], q[1])
        if not 0.2 < d < 1.95:
            continue
        mid = 0.5 * q
        height = np.sqrt(1.0 - 0.25 * d * d)
        perp = np.array([-q[1], q[0]]) / d
        closer = mid + (1.0 if rng.random() < 0.5 else -1.0) * height * perp
        candidate = np.vstack([pts, closer])
        # reject near-cusp corners so every scheme applies
        diffs = np.vstack([candidate[1:] - candidate[:-1], candidate[:1] - candidate[-1:]])
        unit = diffs / np.hypot(diffs[:, 0], diffs[:, 1])[:, None]
        cos_turn = np.sum(unit * np.roll(unit, 1, axis=0), axis=1)
        if np.min(1.0 + cos_turn) < 1e-3:
            continue
        return DiscreteCurve(candidate, closed=True, sigma=sigma)
    raise RuntimeError(f"failed to build an equilateral {n}-gon")
