"""Hand-built oracles for corner cases the stock families don't cover."""

from graphends import GraphOracle


class PendantLine(GraphOracle):
    """Half line 0-1-2-... with one extra vertex (id -1) hanging at `at`."""

    def __init__(self, at=5):
        super().__init__()
        self.at = at

    def contains(self, v):
        return v >= 0 or v == -1

    def _neighbors(self, v):
        if v == -1:
            return [(self.at, 1)]
        out = [(v + 1, 1)]
        if v >= 1:
            out.append((v - 1, 1))
        if v == self.at:
            out.append((-1, 1))
        return out


class LollipopLine(GraphOracle):
    """Half line with a finite cycle 0-(-1)-(-2)-0 glued at the origin.

    Gives a graph where a single edge removal on the cycle never separates
    and where small windows contain a finite blob.
    """

    def contains(self, v):
        return v >= -2

    def _neighbors(self, v):
        if v == -1:
            return [(-2, 1), (0, 1)]
        if v == -2:
            return [(-1, 1), (0, 1)]
        if v == 0:
            return [(-2, 1), (-1, 1), (1, 1)]
        out = [(v + 1, 1)]
        if v >= 1:
            out.append((v - 1, 1))
        return out


class TwoEndLineWithChord(GraphOracle):
    """Integer line plus one chord between -3 and 3; two ends, and near the
    origin some single-edge removals fail to separate."""

    def contains(self, v):
        return True

    def _neighbors(self, v):
        out = [(v - 1, 1), (v + 1, 1)]
        if v == -3:
            out.append((3, 1))
        elif v == 3:
            out.append((-3, 1))
        return out


class LoopyLine(GraphOracle):
    """Half line 0-1-2-... with its edge (1, 2) doubled, plus a pendant path
    0 - (-1) - (-2) ending in a loop at -2.

    Removing one copy of (1, 2) leaves its endpoints joined by the other;
    cutting the pendant path off leaves a finite piece whose reach grows
    one last time through the loop.
    """

    def contains(self, v):
        return v >= -2

    def _neighbors(self, v):
        if v == -2:
            return [(-2, 1), (-1, 1)]
        if v == -1:
            return [(-2, 1), (0, 1)]
        if v == 0:
            return [(-1, 1), (1, 1)]
        if v == 1:
            return [(0, 1), (2, 2)]
        if v == 2:
            return [(1, 2), (3, 1)]
        return [(v - 1, 1), (v + 1, 1)]
