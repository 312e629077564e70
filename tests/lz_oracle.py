"""Incremental-dictionary parse cost of one string, parsed on its own;
imports nothing from balex.

The string is parsed left to right into phrases; each phrase extends the
longest previously-seen phrase matching the upcoming bits by one bit.
Phrase number j (1-based) costs ceil(log2(j)) index bits plus one literal
bit; a final incomplete phrase costs its index only.  With a fixed index
width every phrase costs that width and no literal bit.
"""


def lz_cost(value: int, n: int, fixed_index_bits: int | None = None) -> int:
    phrases: dict[tuple[int, int], int] = {}  # (length, bits) -> id
    cost = 0
    pos = 0
    emitted = 0
    while pos < n:
        node_len = 0
        node_bits = 0
        while pos < n:
            bit = (value >> (n - 1 - pos)) & 1
            nxt = (node_len + 1, (node_bits << 1) | bit)
            if nxt in phrases:
                node_len, node_bits = nxt
                pos += 1
            else:
                break
        emitted += 1
        if fixed_index_bits is not None:
            index_bits = fixed_index_bits
        else:
            index_bits = max(0, (emitted - 1).bit_length())
        if pos < n:
            bit = (value >> (n - 1 - pos)) & 1
            pos += 1
            phrases[(node_len + 1, (node_bits << 1) | bit)] = emitted
            cost += index_bits + (0 if fixed_index_bits is not None else 1)
        else:
            cost += index_bits
    return cost
