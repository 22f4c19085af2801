"""Byte mutations of a valid input, drawn by hypothesis, for fuzz tests."""

from hypothesis import strategies as st


def mutate(data, raw):
    """A copy of the bytes `raw` truncated, with 1-4 bytes XORed, or with
    1-16 bytes appended; `data` is hypothesis's st.data() draw object."""
    raw = bytearray(raw)
    kind = data.draw(st.sampled_from(["truncate", "flip", "append"]))
    if kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "flip":
        for pos in data.draw(st.lists(st.integers(0, len(raw) - 1), min_size=1,
                                      max_size=4)):
            raw[pos] ^= data.draw(st.integers(1, 255))
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    return bytes(raw)
