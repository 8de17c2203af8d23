"""LT encoder and iterative peeling decoder over packet symbols.

Encoding: each output symbol independently samples a degree d from the
configured distribution, picks a uniform d-subset of the k inputs, and XORs
their payloads. Decoding: repeatedly take a symbol whose residual degree is
one, recover its remaining input, and cancel that input out of every other
symbol containing it; stop when no degree-one symbols remain. `peel` does
this round-parallel on the CSR graph: each round releases every degree-one
symbol at once, one per input, at a cost in numpy calls over the edges it
removes. A ripple is always the symbols of residual degree one, so each
next ripple is read off the residual degrees: a round decodes the lone input
of every ripple symbol, dropping each to zero, and changes only the symbols
it touches. The order does not change the result: the inputs left
unrecovered form the largest stopping set of the received graph, which is
the same for every release order (Di, Proietti, Telatar, Richardson &
Urbanke, IEEE Trans. IT 48, 2002), and when each payload is the XOR of its
inputs, each recovered value is that input.

Coded symbols travel as `CodedSymbols`: one read-only CSR graph (offsets,
neighbors), whose neighbour rules it checks, and one n x B payload matrix.
`encode` draws the graph with `sample_graph`, then XORs the payloads into the
matrix one block of rows at a time; `DecoderState` peels those arrays as they
are, and packs any other sequence of `CodedSymbol` into them first. A
`CodedSymbol` is built only when a caller iterates the symbols.

Randomness is a SplitMix64 stream per output symbol: symbol i draws from
SplitMix64 seeded with seed_i = mix64(seed + (i+1) * gamma), gamma =
0x9E3779B97F4A7C15. The stream split makes encoding reproducible for a given
seed and embarrassingly parallel across symbols. Degrees come from
inverse-CDF sampling; subsets from a partial Fisher-Yates shuffle with
rejection-sampled (exactly uniform) index draws. SplitMix64 is counter-based
(draw t of symbol i is mix64(seed_i + t * gamma)), so `sample_graph` computes
the seeds and degrees of all symbols as one numpy uint64 expression, then the
index draws of a whole block of symbols, on keys sized to the block.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .degree_dist import DegreeDistribution

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer; a cheap, well-mixed 64-bit hash."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class SplitMix64:
    """Minimal 64-bit PRNG: state walks by the golden gamma, output is mix64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection; exactly uniform."""
        if n <= 0:
            raise ValueError("n must be positive")
        threshold = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n


def symbol_stream_seed(seed: int, index: int) -> int:
    """Seed of the per-symbol RNG stream; the documented split convention."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class CodedSymbol:
    """One output symbol: sorted input indices plus the XOR of their payloads.

    A plain record: `CodedSymbols` checks the neighbour rules when it packs
    the symbol, so a bad one raises in `decode`.
    """

    neighbors: tuple[int, ...]
    payload: bytes


class CodedSymbols:
    """n coded symbols as one read-only CSR graph and payload matrix.

    Symbol i's sorted inputs are neighbors[offsets[i]:offsets[i+1]] and its
    payload is payload[i]: offsets holds n+1 int64, neighbors int64, payload
    n rows of uint8. The constructor checks that shape and the rows
    (`_check_graph`). Iteration builds each CodedSymbol only when it is
    asked for; `encode` and `DecoderState` use the arrays directly.
    """

    __slots__ = ("offsets", "neighbors", "payload")

    def __init__(self, offsets: np.ndarray, neighbors: np.ndarray, payload: np.ndarray) -> None:
        _check_graph(offsets, neighbors, payload)
        for array in (offsets, neighbors, payload):
            array.flags.writeable = False
        self.offsets, self.neighbors, self.payload = offsets, neighbors, payload

    @classmethod
    def pack(cls, symbols: Sequence[CodedSymbol]) -> CodedSymbols:
        """Flatten CodedSymbol objects, whose payloads must share one length."""
        nbrs = [sym.neighbors for sym in symbols]
        offsets = np.zeros(len(nbrs) + 1, dtype=np.int64)
        np.add.accumulate(np.fromiter(map(len, nbrs), np.int64, len(nbrs)), out=offsets[1:])
        neighbors = np.fromiter(itertools.chain.from_iterable(nbrs), np.int64, int(offsets[-1]))
        payloads = [sym.payload for sym in symbols]
        if len(set(map(len, payloads))) > 1:
            raise ValueError("all payloads must have the same length")
        size = len(payloads[0]) if payloads else 0
        payload = np.frombuffer(b"".join(payloads), np.uint8).reshape(len(payloads), size)
        return cls(offsets, neighbors, payload)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __iter__(self) -> Iterator[CodedSymbol]:
        nbrs, bounds = self.neighbors.tolist(), self.offsets.tolist()
        size, blob = self.payload.shape[1], self.payload.tobytes()
        for i, (first, end) in enumerate(zip(bounds, bounds[1:])):
            yield CodedSymbol(tuple(nbrs[first:end]), blob[i * size : (i + 1) * size])


def xor_payload(inputs: Sequence[bytes], neighbors: Iterable[int]) -> bytes:
    """XOR of the selected input packets, lane-wise over the byte vectors."""
    acc = 0
    size = None
    for idx in neighbors:
        data = inputs[idx]
        if size is None:
            size = len(data)
        elif len(data) != size:
            raise ValueError("all input packets must have the same length")
        acc ^= int.from_bytes(data, "big")
    if size is None:
        raise ValueError("empty neighbor set")
    return acc.to_bytes(size, "big")


def _degree_cdf(dist: DegreeDistribution) -> np.ndarray:
    """Running sum of the masses in entry order, the last set to 1.0."""
    cdf = np.add.accumulate(dist.mass_array)  # sums left to right
    cdf[-1] = 1.0
    return cdf


# symbols per numpy pass; a block's temporaries, a dozen arrays over its
# edges, stay small beside the symbols themselves. Running sums use
# np.add.accumulate: np.cumsum (numpy 2.4) leaves small objects alive from
# call to call, and those kept freed trial memory from going back to the OS.
_BLOCK = 1024
_KEY_LIMIT = (1 << 63) - 1


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, in place (numpy wraps uint64 arithmetic)."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _rejected(draws: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Draws that SplitMix64.randbelow(m) rejects: x >= 2**64 - (2**64 mod m)."""
    rem = (0 - m) % m  # 2**64 mod m, in wrapping uint64 arithmetic
    return (rem != 0) & (draws >= 0 - rem)


def _fisher_yates(
    base: np.ndarray, step: np.ndarray, pick: np.ndarray, row_start: np.ndarray,
    k: int, bits: int,
) -> np.ndarray:
    """Value each partial Fisher-Yates step takes, for all rows at once.

    Edge (row, step) swaps position step with position pick >= step.
    Before step t, position p holds p itself, unless an earlier step h of
    the same row picked p; then it holds what position h held before step h.
    Each key packs (row, position, step) as (row*k + position) << bits | step,
    where base = row*k and every step is below 2**bits, and the keys are
    distinct; they are int32 while rows*k << bits < 2**31. So the latest
    earlier step that picked the same position is an edge's predecessor in
    the sorted keys: one comparison of neighbours finds them all, and the
    edge is read back from its key as row_start[row] + step. Only the few
    chains that go on (position h asked about before step h) need a
    searchsorted each step.
    """
    mask = (1 << bits) - 1
    key = np.int32 if (row_start.size * k) << bits < 2**31 else np.int64
    keys = (base + pick).astype(key, copy=False)
    keys <<= bits
    keys |= step
    keys.sort()
    value = pick.copy()
    slot = keys >> bits  # row*k + position
    pair = np.flatnonzero(slot[1:] == slot[:-1])  # keys pair and pair+1 share a slot
    live = row_start[slot[pair] // k] + (keys[pair + 1] & mask)
    h = keys[pair] & mask
    while live.size:
        value[live] = h
        query = (base[live] + h) << bits | h
        i = np.searchsorted(keys, query) - 1
        prev = keys[i]
        hit = (i >= 0) & (prev >> bits == query >> bits)
        live = live[hit]
        h = prev[hit] & mask
    return value


def _replay_row(stream_seed: int, k: int, degree: int) -> list[int]:
    """A row's sorted inputs drawn one at a time; for rows with a rejected draw."""
    rng = SplitMix64(stream_seed)
    rng.next_u64()  # draw 1 chose the degree
    overlay: dict[int, int] = {}
    chosen = []
    for j in range(degree):
        pick = j + rng.randbelow(k - j)
        chosen.append(overlay.get(pick, pick))
        overlay[pick] = overlay.get(j, j)
    return sorted(chosen)


def _sample_block(seeds: np.ndarray, deg: np.ndarray, k: int, out: np.ndarray) -> None:
    """Writes the row-major sorted neighbors of one block of symbols to out.

    The edge arrays are int32 while rows*k < 2**31, and each step takes the
    bits of the block's own largest degree in the Fisher-Yates keys.
    """
    edge = np.int32 if deg.size * k < 2**31 else np.int64
    row_start = (np.add.accumulate(deg) - deg).astype(edge)
    base = np.repeat(np.arange(0, deg.size * k, k, dtype=edge), deg)  # row*k
    step = np.arange(out.size, dtype=edge)
    step -= np.repeat(row_start, deg)
    m = (k - step).astype(np.uint64)
    draws = (step + 2).astype(np.uint64)
    draws *= np.uint64(_GOLDEN)
    draws += np.repeat(seeds, deg)
    draws = _mix64_array(draws)
    pick = (draws % m).astype(edge)
    pick += step

    chosen = _fisher_yates(base, step, pick, row_start, k, (int(deg.max()) - 1).bit_length())
    chosen += base
    chosen.sort()
    np.subtract(chosen, base, out=out)
    # randbelow(m) rejects only draws >= 2**64 - (2**64 mod m) > 2**64 - k
    near = np.flatnonzero(draws > np.uint64(2**64 - k))
    for r in set((base[near[_rejected(draws[near], m[near])]] // k).tolist()):
        a, d = int(row_start[r]), int(deg[r])
        out[a : a + d] = _replay_row(int(seeds[r]), k, d)


def sample_graph(
    dist: DegreeDistribution, k: int, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The LT graph of n coded symbols over k inputs, in CSR form.

    Returns (offsets, neighbors), both int64: symbol i's inputs are
    neighbors[offsets[i]:offsets[i+1]], sorted. Draw t of symbol i is
    mix64(symbol_stream_seed(seed, i) + t*gamma), the t-th output of its
    SplitMix64 stream: t = 1 picks the degree by inverse CDF, t = j+2 the
    j-th partial Fisher-Yates index, with rejection as in randbelow. The
    stream seeds and degrees of all symbols come in one pass, which sizes
    both arrays; then each block of symbols draws its subsets at once into
    its slice of neighbors, and the rare row with a rejected draw is
    replayed one draw at a time.
    """
    if k < 1:
        raise ValueError("need at least one input packet")
    if n < 0:
        raise ValueError("n must be >= 0")
    if dist.max_degree > k:
        raise ValueError(
            f"distribution support (max degree {dist.max_degree}) exceeds k={k}"
        )
    gamma = np.uint64(_GOLDEN)
    seeds = _mix64_array(np.uint64(seed & _MASK64) + np.arange(1, n + 1, dtype=np.uint64) * gamma)
    u = (_mix64_array(seeds + gamma) >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    degrees = dist.degree_array[np.searchsorted(_degree_cdf(dist), u, side="left")]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.accumulate(degrees, out=offsets[1:])
    neighbors = np.empty(int(offsets[-1]), dtype=np.int64)
    # the packed (row, position, step) keys must fit in an int64
    rows = max(1, min(_BLOCK, _KEY_LIMIT // (k << (dist.max_degree - 1).bit_length())))
    for a in range(0, n, rows):
        b = min(n, a + rows)
        _sample_block(seeds[a:b], degrees[a:b], k, neighbors[offsets[a] : offsets[b]])
    return offsets, neighbors


def _check_graph(offsets: np.ndarray, neighbors: np.ndarray, payload: np.ndarray) -> None:
    """The CSR shape and the neighbour rules of coded symbols, at once over a whole graph."""
    if offsets.ndim != 1 or not offsets.size or offsets[0] != 0 or offsets[-1] != neighbors.size:
        raise ValueError("offsets must be 1-D, start at 0 and end at the neighbor count")
    if payload.ndim != 2 or payload.shape[0] != offsets.size - 1:
        raise ValueError("payload needs one row per coded symbol")
    if np.any(offsets[1:] <= offsets[:-1]):
        raise ValueError("a coded symbol needs at least one neighbor")
    unsorted = neighbors[1:] <= neighbors[:-1]
    unsorted[offsets[1:-1] - 1] = False  # a row may start below where the last ended
    if np.any(unsorted):
        raise ValueError("neighbors must be sorted and distinct")
    if neighbors.size and neighbors.min() < 0:
        raise ValueError("neighbor indices must be nonnegative")


def encode(
    inputs: Sequence[bytes],
    dist: DegreeDistribution,
    n: int,
    rng_seed: int,
) -> CodedSymbols:
    """Generate n coded symbols from k input packets; deterministic in rng_seed.

    Rows are XORed block by block, so each `np.take(..., axis=0)` gather stays small.
    """
    k = len(inputs)
    if k < 1:
        raise ValueError("need at least one input packet")
    size = len(inputs[0])
    if len(set(map(len, inputs))) > 1:
        raise ValueError("all input packets must have the same length")
    offsets, neighbors = sample_graph(dist, k, n, rng_seed)
    data = np.frombuffer(b"".join(inputs), dtype=np.uint8).reshape(k, size)
    payload = np.empty((n, size), dtype=np.uint8)
    for a in range(0, n, _BLOCK):
        bounds = offsets[a : a + _BLOCK + 1]
        np.bitwise_xor.reduceat(np.take(data, neighbors[bounds[0] : bounds[-1]], axis=0),
                                bounds[:-1] - bounds[0], axis=0, out=payload[a : a + _BLOCK])
    return CodedSymbols(offsets, neighbors, payload)


def _row_edges(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge positions of the given CSR rows, row after row, and each row's start."""
    lengths = offsets[rows + 1] - offsets[rows]
    starts = np.add.accumulate(lengths) - lengths
    edges = np.arange(int(lengths.sum())) + np.repeat(offsets[rows] - starts, lengths)
    return edges, starts


def peel(offsets: np.ndarray, neighbors: np.ndarray, k: int) -> tuple[
        np.ndarray, list[tuple[np.ndarray, np.ndarray]], np.ndarray, int]:
    """Round-parallel peeling of a CSR graph of coded symbols over k inputs.

    Each round releases every degree-one symbol, the lowest-indexed per input.
    Returns the decoded mask, the (symbols, inputs) released in each round,
    inputs ascending, each symbol's residual degree (its undecoded
    neighbours) and the edge removals, the summed degrees of the decoded
    inputs. Every symbol needs at least one neighbour, and k**2 < 2**63.

    The symbols at each input come from one sort of the packed keys
    input*n + symbol, int32 while k*n < 2**31: the order of a stable argsort
    of neighbors, at a fraction of its cost. Beside its residual degree each
    symbol keeps the sum of its undecoded neighbours, so a degree-one
    symbol's sum is its lone input, read without gathering its row. Each
    input keeps the symbol that released it, which is also the decoded mask.
    The ripple is the symbols of residual degree one at the first round, and
    so at every round: a round releases every input its ripple holds, which
    drops each ripple symbol to zero, and changes only the symbols it touches.
    """
    residual = np.diff(offsets)
    n = residual.size
    counts = np.bincount(neighbors, minlength=k)
    input_offsets = np.zeros(k + 1, dtype=np.int64)
    np.add.accumulate(counts, out=input_offsets[1:])
    # the symbols at each input, ascending, as key - input*n of the sorted keys
    key = np.int32 if k * n < 2**31 else np.int64
    by_input = neighbors.astype(key)
    by_input *= n
    by_input += np.repeat(np.arange(n, dtype=key), residual)
    by_input.sort()
    by_input -= np.repeat(np.arange(k, dtype=key) * key(n), counts)
    # the sum of each symbol's undecoded neighbours; below k**2, so no overflow
    lone = np.add.reduceat(neighbors, offsets[:-1]) if n else np.zeros(0, dtype=np.int64)
    # the symbol that released each input, n while it is undecoded; no entry is set twice
    first = np.full(k, n, dtype=np.int64)
    rounds, removals = [], 0
    ripple = np.flatnonzero(residual == 1)
    while ripple.size:
        held = lone[ripple]
        np.minimum.at(first, held, ripple)
        inputs = np.sort(held[first[held] == ripple])
        rounds.append((first[inputs], inputs))
        touched = by_input[_row_edges(input_offsets, inputs)[0]]
        removals += touched.size
        np.subtract.at(residual, touched, 1)
        np.subtract.at(lone, touched, np.repeat(inputs, counts[inputs]))
        ripple = np.flatnonzero(residual == 1)
    return first < n, rounds, residual, removals


class DecoderState:
    """The received symbols as a CSR graph and payload matrix, and their peel.

    `run` peels (`peel`), then sets each round's released inputs to their
    symbols' payloads XOR the values of the symbols' other neighbours, which
    earlier rounds decoded; any release order leaves the same stopping set.
    It gathers payload and value rows with `np.take(..., axis=0)`.
    """

    def __init__(self, symbols: CodedSymbols | Sequence[CodedSymbol], k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not isinstance(symbols, CodedSymbols):
            symbols = CodedSymbols.pack(symbols)
        self.offsets, self.neighbors, self.payload = (
            symbols.offsets, symbols.neighbors, symbols.payload)
        last = self.neighbors[self.offsets[1:] - 1]
        if np.any(last >= k):
            raise ValueError(f"symbol references input {last[last >= k][0]} >= k={k}")
        self.payload_size = self.payload.shape[1]
        self.k, self.decoded_count, self.edge_removals = k, 0, 0

    def run(self) -> None:
        """Peel to fixpoint, then back-substitute the payloads round by round."""
        self.decoded, rounds, self.residual_degree, self.edge_removals = peel(
            self.offsets, self.neighbors, self.k)
        self.decoded_count = int(self.decoded.sum())
        self.values = np.zeros((self.k, self.payload_size), dtype=np.uint8)
        if not rounds:
            return
        # the rows of all released symbols in one gather, sliced round by round
        released = np.concatenate([syms for syms, _ in rounds])
        edges, starts = _row_edges(self.offsets, released)
        rows, payload = self.neighbors[edges], np.take(self.payload, released, axis=0)
        starts = np.append(starts, edges.size)
        a = 0
        for syms, inputs in rounds:
            b = a + syms.size
            first = starts[a]
            others = np.bitwise_xor.reduceat(np.take(self.values, rows[first : starts[b]], axis=0),
                                             starts[a:b] - first, axis=0)
            self.values[inputs] = payload[a:b] ^ others
            a = b


def decode(
    symbols: CodedSymbols | Sequence[CodedSymbol], k: int
) -> tuple[list[bytes | None], int]:
    """Peel the received symbols; returns (per-input values or None, count)."""
    state = DecoderState(symbols, k)
    state.run()
    if state.payload_size:
        values = state.values.view(f"V{state.payload_size}").ravel().astype(object)
    else:  # a zero-width row has no V0 view
        values = np.full(k, b"", dtype=object)
    values[~state.decoded] = None
    return values.tolist(), state.decoded_count
