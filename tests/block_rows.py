"""Blocks built from (Config, CarrierPath) rows, for tests that edit rows."""

from boxball import SpaceTimeBlock


def block_from_rows(J, K, rows):
    """The block of (Config, CarrierPath) rows; the boundary mode and the
    approximate flag are row 0's."""
    c0, w0 = rows[0]
    return SpaceTimeBlock.from_spans(J, K, [(c.offset, c.cells) for c, _ in rows],
                                     [(w.offset, w.values) for _, w in rows],
                                     [w.left_seed for _, w in rows], c0.boundary,
                                     w0.approximate)
