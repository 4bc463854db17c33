"""Blocks built from (Config, CarrierPath) rows, for tests that edit rows."""

from boxball import SpaceTimeBlock


def block_from_rows(J, K, rows):
    """The block of (Config, CarrierPath) rows; the boundary mode is row 0's."""
    return SpaceTimeBlock.from_spans(J, K, [(c.offset, c.cells) for c, _ in rows],
                                     [(w.offset, w.values) for _, w in rows],
                                     rows[0][0].boundary)
