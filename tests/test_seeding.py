"""The sub-stream tag table and the one sub-stream constructor."""

from __future__ import annotations

import numpy as np

from repro.seeding import STREAM_TAGS, stream_rng


def test_stream_tags_are_distinct():
    # Two streams sharing a tag would draw identical values under a
    # shared root seed and subject id.
    assert len(set(STREAM_TAGS.values())) == len(STREAM_TAGS)


def test_stream_rng_is_default_rng_of_seed_tag_and_ids():
    tag = STREAM_TAGS["fleet.placement"]
    assert stream_rng(2020, "fleet.placement").random(4).tolist() \
        == np.random.default_rng(
            np.random.SeedSequence([2020, tag])).random(4).tolist()
    tag = STREAM_TAGS["fault.hang"]
    assert stream_rng(7, "fault.hang", 3).random(4).tolist() \
        == np.random.default_rng([7, tag, 3]).random(4).tolist()

