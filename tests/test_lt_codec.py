import bisect
import hashlib
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fountain_lab import (
    CodedSymbol,
    DegreeDistribution,
    decode,
    encode,
    ideal_soliton,
    perturb,
    robust_soliton,
    truncated_soliton,
)
from fountain_lab import lt_codec, sim_harness
from fountain_lab.lt_codec import CodedSymbols, DecoderState, sample_graph, xor_payload

DEG1 = DegreeDistribution.from_mapping({1: 1.0})
DEG2 = DegreeDistribution.from_mapping({2: 1.0})


def random_inputs(rng, k, nbytes=1):
    return [bytes(rng.integers(0, 256, size=nbytes, dtype=np.uint8)) for _ in range(k)]


def oracle_decode(symbols, k):
    """Naive re-scan peeler: no data structures, quadratic, obviously right."""
    recovered = {}
    progress = True
    while progress:
        progress = False
        for sym in symbols:
            residual = [v for v in sym.neighbors if v not in recovered]
            if len(residual) == 1:
                value = int.from_bytes(sym.payload, "big")
                for v in sym.neighbors:
                    if v in recovered:
                        value ^= recovered[v]
                recovered[residual[0]] = value
                progress = True
    return recovered


def random_instance(rng, k_max=12, n_max=16, nbytes=1):
    k = int(rng.integers(1, k_max + 1))
    n = int(rng.integers(0, n_max + 1))
    inputs = random_inputs(rng, k, nbytes)
    symbols = []
    for _ in range(n):
        d = int(rng.integers(1, k + 1))
        nbrs = tuple(sorted(rng.choice(k, size=d, replace=False).tolist()))
        symbols.append(CodedSymbol(nbrs, xor_payload(inputs, nbrs)))
    return k, inputs, symbols


# --- encoding ---

def test_encode_single_input():
    symbols = encode([b"\x01"], DEG1, 3, rng_seed=7)
    assert len(symbols) == 3
    for sym in symbols:
        assert sym.neighbors == (0,)
        assert sym.payload == b"\x01"


def test_xor_payload_cancels():
    inputs = [b"\x01", b"\x00", b"\x01"]
    assert xor_payload(inputs, (0, 2)) == b"\x00"
    assert xor_payload(inputs, (0, 1)) == b"\x01"
    with pytest.raises(ValueError, match="same length"):
        xor_payload([b"\x01", b"\x00\x00"], (0, 1))
    with pytest.raises(ValueError, match="empty neighbor set"):
        xor_payload(inputs, ())


def test_encode_validation():
    with pytest.raises(ValueError):
        encode([], DEG1, 1, rng_seed=0)
    with pytest.raises(ValueError):
        encode([b"\x01"], DEG2, 1, rng_seed=0)  # support exceeds k
    with pytest.raises(ValueError):
        encode([b"\x01", b"\x00\x00"], DEG1, 1, rng_seed=0)  # ragged packets


def test_encode_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(3)
    inputs = random_inputs(rng, 40)
    a = encode(inputs, ideal_soliton(40), 60, rng_seed=123)
    b = encode(inputs, ideal_soliton(40), 60, rng_seed=123)
    c = encode(inputs, ideal_soliton(40), 60, rng_seed=124)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_coded_symbols_sequence():
    rng = np.random.default_rng(21)
    k, nbytes = 30, 3
    inputs = random_inputs(rng, k, nbytes)
    symbols = encode(inputs, ideal_soliton(k), 25, rng_seed=8)
    assert isinstance(symbols, CodedSymbols) and len(symbols) == 25
    plain = list(symbols)
    assert len(plain) == 25 and all(type(sym) is CodedSymbol for sym in plain)
    for i, sym in enumerate(plain):
        first, end = symbols.offsets[i], symbols.offsets[i + 1]
        assert sym.neighbors == tuple(symbols.neighbors[first:end].tolist())
        assert sym.payload == symbols.payload[i].tobytes()
        assert sym.payload == xor_payload(inputs, sym.neighbors)
    assert list(CodedSymbols.pack(plain)) == plain
    for array in (symbols.offsets, symbols.neighbors, symbols.payload):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert symbols.payload.shape == (25, nbytes) and symbols.offsets.size == 26


def test_encode_no_symbols():
    symbols = encode([b"\x01\x02"] * 3, DEG1, 0, rng_seed=1)
    assert len(symbols) == 0 and list(symbols) == []
    assert symbols.offsets.tolist() == [0] and symbols.neighbors.size == 0
    assert symbols.payload.shape == (0, 2)
    assert decode(symbols, 3) == ([None] * 3, 0)


@pytest.mark.parametrize("block", [lt_codec._BLOCK, 3])
@pytest.mark.parametrize("n", [0, 2500])
def test_encode_graph_is_sample_graph(monkeypatch, block, n):
    # encode draws with sample_graph, then XORs one block of rows at a time;
    # 2500 is a multiple of neither block, so the last block is short
    monkeypatch.setattr(lt_codec, "_BLOCK", block)
    dist, k, seed, nbytes = robust_soliton(300, 0.1, 0.5), 300, 41, 5
    inputs = golden_inputs(k, nbytes, 2)
    symbols = encode(inputs, dist, n, seed)
    offsets, neighbors = sample_graph(dist, k, n, seed)
    assert np.array_equal(symbols.offsets, offsets)
    assert np.array_equal(symbols.neighbors, neighbors)
    data = np.frombuffer(b"".join(inputs), dtype=np.uint8).reshape(k, nbytes)
    want = np.zeros((n, nbytes), dtype=np.uint8)
    for i in range(n):
        for j in neighbors[offsets[i] : offsets[i + 1]]:
            want[i] ^= data[j]
    assert np.array_equal(symbols.payload, want)


def test_encode_peak_memory_stays_below_a_whole_graph_gather():
    # 256-byte symbols: gathering data[neighbors] over the whole graph at
    # once would allocate edges * 256 bytes; encode XORs one block at a time
    k, n, nbytes = 1000, 8000, 256
    inputs = golden_inputs(k, nbytes, 5)
    tracemalloc.start()
    try:
        symbols = encode(inputs, DegreeDistribution.from_mapping({8: 0.5, 12: 0.5}), n, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gather = symbols.neighbors.size * nbytes
    assert gather > 8 * n * nbytes  # every symbol has degree 8 or 12
    assert peak < gather / 2


def test_encode_uniform_pair_statistics():
    # fixed degree 2 over k=100: mean degree exact, pair frequencies uniform
    k, n = 100, 10_000
    inputs = random_inputs(np.random.default_rng(0), k)
    symbols = encode(inputs, DEG2, n, rng_seed=2024)
    assert all(len(sym.neighbors) == 2 for sym in symbols)

    counts = Counter(sym.neighbors for sym in symbols)
    cells = math.comb(k, 2)
    expected = n / cells
    chi2 = sum((counts.get(pair, 0) - expected) ** 2 / expected
               for pair in itertools.combinations(range(k), 2))
    dof = cells - 1
    assert abs(chi2 - dof) <= 4.0 * math.sqrt(2.0 * dof)


def test_encode_degree_marginals_match():
    dist = robust_soliton(200, 0.05, 0.5)
    inputs = random_inputs(np.random.default_rng(1), 200)
    symbols = encode(inputs, dist, 20_000, rng_seed=5)
    got = Counter(len(sym.neighbors) for sym in symbols)
    for degree in (1, 2, 3):
        expected = 20_000 * dist.mass(degree)
        assert abs(got[degree] - expected) <= 5.0 * math.sqrt(expected)


# SHA-256 of fixture_text(encode(...)) as the per-symbol scalar encoder
# produced it: (dist, k, n, seed, payload bytes) -> digest. Inputs come from
# golden_inputs(k, nbytes, k + n).
GOLDEN = {
    "k1": (DEG1, 1, 5, 7, 2,
           "b4af8ef36a68f1cf6ba554aefb52ab43aa70b92bd25b13a5a29e07e68be8a02c"),
    "full_permutation_k7": (
        DegreeDistribution.from_mapping({7: 1.0}), 7, 30, 11, 1,
        "ee3eb3e12a499aa7d2419f8beb667912467ec52c8455fa1fc92086ff37cc564e"),
    # m = k - j runs through 64, 32, ..., 1, where no draw is ever rejected
    "degree64_atom_k64": (
        DegreeDistribution.from_mapping({2: 0.5, 64: 0.5}), 64, 40, 3, 2,
        "21bc3743d06151dfdb30b551c4b14d1656413c9d5984e903c14b90dac0bf8223"),
    "robust1000_seed_2p64_plus_17": (
        robust_soliton(1000, 0.1, 0.5), 1000, 1200, 2**64 + 17, 3,
        "c73cf3281043f40ea743e753d8ee2bba309bb443b4c2d4cd0287934150f1a6b1"),
    "ideal2000_seed_2p64_minus_5": (
        ideal_soliton(2000), 2000, 1500, 2**64 - 5, 1,
        "58c0404701895c71d471e5ef6463c875e37f79a259159f7842e66949784adbe7"),
    "seed_minus_1": (
        ideal_soliton(50), 50, 100, -1, 1,
        "7470835af9a70ec775dade85c4742b98dff59d7eb94107f821af654bdc0d1f1e"),
    "n0": (ideal_soliton(50), 50, 0, 9, 1,
           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # more symbols than one sampling block
    "ideal300_n9000": (
        ideal_soliton(300), 300, 9000, 12345, 2,
        "f6047b131779abff370416f39135a4f47c79b79073958a2102cf30a577a68e83"),
}


def golden_inputs(k, nbytes, seed):
    rng = np.random.default_rng(seed)
    return [bytes(row) for row in rng.integers(0, 256, size=(k, nbytes), dtype=np.uint8)]


def fixture_text(symbols):
    """One line per symbol: "idx1,idx2,...<TAB>hex"."""
    return "".join(",".join(map(str, sym.neighbors)) + "\t" + sym.payload.hex() + "\n"
                   for sym in symbols)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_encode_golden_digest(case):
    dist, k, n, seed, nbytes, digest = GOLDEN[case]
    text = fixture_text(encode(golden_inputs(k, nbytes, k + n), dist, n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def scalar_graph(dist, k, n, seed, chains=None):
    """Each symbol's sorted inputs, drawn one SplitMix64 output at a time.

    If chains is a list, it gets each row's longest swap chain: the number of
    earlier steps followed back to find what a picked position holds.
    """
    cdf, acc = [], 0.0
    for _, m in dist.entries:
        acc += m
        cdf.append(acc)
    cdf[-1] = 1.0
    degrees = [d for d, _ in dist.entries]
    rows = []
    for i in range(n):
        rng = lt_codec.SplitMix64(lt_codec.symbol_stream_seed(seed, i))
        d = degrees[bisect.bisect_left(cdf, rng.random())]
        overlay, chosen, depth, longest = {}, [], {}, 0
        for j in range(d):
            pick = j + rng.randbelow(k - j)
            chosen.append(overlay.get(pick, pick))
            longest = max(longest, depth.get(pick, 0))
            overlay[pick] = overlay.get(j, j)
            depth[pick] = 1 + depth.get(j, 0)
        rows.append(sorted(chosen))
        if chains is not None:
            chains.append(longest)
    return rows


def test_degree_cdf_is_the_running_sum():
    for dist in (robust_soliton(10_000, 0.1, 0.5), ideal_soliton(2000), DEG1):
        running, acc = [], 0.0
        for _, m in dist.entries:
            acc += m
            running.append(acc)
        running[-1] = 1.0
        assert lt_codec._degree_cdf(dist).tolist() == running


def csr_rows(offsets, neighbors):
    assert offsets.dtype == neighbors.dtype == np.int64
    assert offsets[0] == 0 and offsets[-1] == neighbors.size
    return [neighbors[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]


def random_distribution(rng, k):
    support = rng.choice(np.arange(1, k + 1), size=int(rng.integers(1, min(k, 6) + 1)),
                         replace=False)
    masses = rng.random(support.size) + 0.01
    return DegreeDistribution.from_mapping(
        dict(zip(support.tolist(), (masses / masses.sum()).tolist())))


@pytest.mark.parametrize("block", [4096, 3])
def test_sample_graph_matches_scalar_streams(monkeypatch, block):
    monkeypatch.setattr(lt_codec, "_BLOCK", block)
    rng = np.random.default_rng(2718 + block)
    for _ in range(150):
        k = int(rng.integers(1, 41))
        dist = random_distribution(rng, k)
        n = int(rng.integers(0, 30))
        seed = int(rng.integers(-2**62, 2**62)) * int(rng.integers(1, 5))
        got = csr_rows(*sample_graph(dist, k, n, seed))
        assert got == scalar_graph(dist, k, n, seed), (dist.entries, k, n, seed)


@pytest.mark.parametrize("block", [1024, 3])
def test_sample_graph_long_swap_chains(monkeypatch, block):
    # At k = 10**4 a row's swaps can chain: a picked position was picked
    # before, by a step whose own position was picked before it, and so on.
    monkeypatch.setattr(lt_codec, "_BLOCK", block)
    dist, k, n = robust_soliton(10_000, 0.1, 0.5), 10_000, 2048
    chains = []
    for seed in range(1, 6):
        got = csr_rows(*sample_graph(dist, k, n, seed))
        assert got == scalar_graph(dist, k, n, seed, chains), seed
    assert max(chains) >= 3


def test_sample_graph_validation():
    with pytest.raises(ValueError):
        sample_graph(DEG1, 0, 1, 0)
    with pytest.raises(ValueError):
        sample_graph(DEG1, 3, -1, 0)
    with pytest.raises(ValueError):
        sample_graph(DEG2, 1, 1, 0)


def test_rejection_threshold():
    for m in (1, 2, 3, 7, 10, 64, 1000, 2**32 + 1, 2**40, 2**63 + 5):
        threshold = (2**64 // m) * m  # randbelow(m) keeps draws below this
        cases = {threshold - 1: False, 2**64 - 1: threshold < 2**64}
        if threshold < 2**64:
            cases[threshold] = True
        draws = np.array(list(cases), dtype=np.uint64)
        got = lt_codec._rejected(draws, np.full(draws.size, m, dtype=np.uint64))
        assert got.tolist() == list(cases.values()), m
    with pytest.raises(ValueError, match="n must be positive"):
        lt_codec.SplitMix64(1).randbelow(0)


def test_rejected_draw_replays_the_row(monkeypatch):
    # Force the first index draw of symbol 3 to 2**64 - 1, above the
    # threshold 2**64 - 6 of randbelow(10), in both the scalar and the array
    # mix64: the row must be replayed and match the scalar stream.
    k, n, seed = 10, 8, 99
    dist = DegreeDistribution.from_mapping({3: 1.0})
    plain = csr_rows(*sample_graph(dist, k, n, seed))
    target = (lt_codec.symbol_stream_seed(seed, 3) + 2 * 0x9E3779B97F4A7C15) % 2**64
    mix64, mix64_array, replay = lt_codec.mix64, lt_codec._mix64_array, lt_codec._replay_row

    def forced(x):
        return 2**64 - 1 if x & (2**64 - 1) == target else mix64(x)

    def forced_array(x):
        hit = x == np.uint64(target)
        out = mix64_array(x)
        out[hit] = np.uint64(2**64 - 1)
        return out

    replayed = []

    def spy(stream_seed, k, degree):
        replayed.append(stream_seed)
        return replay(stream_seed, k, degree)

    monkeypatch.setattr(lt_codec, "mix64", forced)
    monkeypatch.setattr(lt_codec, "_mix64_array", forced_array)
    monkeypatch.setattr(lt_codec, "_replay_row", spy)
    got = csr_rows(*sample_graph(dist, k, n, seed))
    assert got == scalar_graph(dist, k, n, seed)
    assert replayed == [lt_codec.symbol_stream_seed(seed, 3)]
    assert got[3] != plain[3]
    assert got[:3] + got[4:] == plain[:3] + plain[4:]


def test_graph_check_rules():
    offsets, payload = np.array([0, 2, 3]), np.zeros((2, 1), np.uint8)
    lt_codec._check_graph(offsets, np.array([1, 4, 0]), payload)  # rows may restart low
    for nbrs, message in (([4, 1, 0], "sorted and distinct"), ([1, 1, 0], "sorted and distinct"),
                          ([-1, 4, 0], "nonnegative")):
        with pytest.raises(ValueError, match=message):
            lt_codec._check_graph(offsets, np.array(nbrs), payload)
    with pytest.raises(ValueError, match="at least one neighbor"):
        lt_codec._check_graph(np.array([0, 2, 2]), np.array([1, 4]), payload)


@pytest.mark.parametrize("offsets, neighbors, rows, message", [
    ([0, 2], [1, 2, 3], 1, "end at the neighbor count"),  # a neighbour past the last row
    ([0, 3], [1, 2], 1, "end at the neighbor count"),  # a row past the neighbours
    ([1, 3], [1, 2, 3], 1, "start at 0"),
    ([[0, 1], [1, 2]], [1, 2], 1, "1-D"),
    ([0, 1, 2], [1, 2], 1, "one row per coded symbol"),
])
def test_coded_symbols_checks_its_shape(offsets, neighbors, rows, message):
    with pytest.raises(ValueError, match=message):
        CodedSymbols(np.array(offsets), np.array(neighbors), np.zeros((rows, 1), np.uint8))


def test_coded_symbol_validation():
    for nbrs, message in (
        ((), "a coded symbol needs at least one neighbor"),
        ((2, 1), "neighbors must be sorted and distinct"),
        ((1, 1), "neighbors must be sorted and distinct"),
        ((-1, 2), "neighbor indices must be nonnegative"),
    ):
        symbol = CodedSymbol(nbrs, b"\x00")  # a plain record: decode checks it
        with pytest.raises(ValueError, match=message):
            decode([symbol], 3)


def test_coded_symbols_checks_its_graph():
    # rows 0 and 1 are [1, 4] and [2, 2]: the second repeats an input
    offsets = np.array([0, 2, 4], dtype=np.int64)
    neighbors = np.array([1, 4, 2, 2], dtype=np.int64)
    payload = np.zeros((2, 1), dtype=np.uint8)
    with pytest.raises(ValueError, match="sorted and distinct"):
        CodedSymbols(offsets, neighbors, payload)
    assert neighbors.flags.writeable  # nothing was wrapped


# --- decoding ---

def test_decode_hand_traced_chain():
    inputs = [b"\x05", b"\x03", b"\x0f"]
    symbols = [
        CodedSymbol((0,), xor_payload(inputs, (0,))),
        CodedSymbol((0, 1), xor_payload(inputs, (0, 1))),
        CodedSymbol((1, 2), xor_payload(inputs, (1, 2))),
    ]
    values, count = decode(symbols, 3)
    assert count == 3
    assert values == inputs


def test_decode_stalls_without_degree_one():
    symbols = [CodedSymbol((0, 1), b"\x06"), CodedSymbol((1, 2), b"\x0c")]
    values, count = decode(symbols, 3)
    assert count == 0
    assert values == [None, None, None]


def test_decode_single_input():
    values, count = decode([CodedSymbol((0,), b"\xab")], 1)
    assert (values, count) == ([b"\xab"], 1)


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode([CodedSymbol((3,), b"\x00")], 3)
    with pytest.raises(ValueError, match="references input 3 >= k=3"):
        decode([CodedSymbol((0, 1), b"\x00"), CodedSymbol((1, 3), b"\x00")], 3)


def symbols_csr(symbols):
    offsets = np.zeros(len(symbols) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(sym.neighbors) for sym in symbols], dtype=np.int64)
    neighbors = np.array([v for sym in symbols for v in sym.neighbors], dtype=np.int64)
    return offsets, neighbors


def test_histogram_examples():
    symbols = [CodedSymbol((0,), b"\x01"), CodedSymbol((0, 1), b"\x03")]
    decoded, _, residual, _ = lt_codec.peel(*symbols_csr(symbols), 2)
    assert (decoded.tolist(), residual.tolist()) == ([True, True], [0, 0])

    stalled = [CodedSymbol((0, 1), b"\x06"), CodedSymbol((1, 2), b"\x0c")]
    decoded, _, residual, _ = lt_codec.peel(*symbols_csr(stalled), 3)
    assert (decoded.tolist(), residual.tolist()) == ([False] * 3, [2, 2])


def test_decode_rejects_ragged_payloads_and_empty_k():
    with pytest.raises(ValueError, match="all payloads must have the same length"):
        decode([CodedSymbol((0,), b"\x01"), CodedSymbol((1,), b"\x01\x02")], 2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        decode([], 0)


def test_peel_matches_oracle():
    rng = np.random.default_rng(300)
    for _ in range(300):
        k, _, symbols = random_instance(rng, k_max=30, n_max=40)
        offsets, neighbors = symbols_csr(symbols)
        decoded, rounds, residual, removals = lt_codec.peel(offsets, neighbors, k)
        truth = oracle_decode(symbols, k)
        assert decoded.tolist() == [v in truth for v in range(k)]
        assert residual.tolist() == [
            sum(v not in truth for v in sym.neighbors) for sym in symbols
        ]
        in_degree = Counter(v for sym in symbols for v in sym.neighbors)
        assert removals == sum(in_degree[v] for v in truth)
        # each round releases one symbol per input that some degree-one symbol
        # holds alone, and nothing else
        known = set()
        for syms, inputs in rounds:
            lone = {}
            for s, sym in enumerate(symbols):
                rest = [v for v in sym.neighbors if v not in known]
                if len(rest) == 1:
                    lone.setdefault(rest[0], s)
            assert dict(zip(inputs.tolist(), syms.tolist())) == lone
            assert len(inputs) == len(lone)
            known.update(lone)
        assert known == set(truth)


def test_peel_edge_cases():
    decoded, rounds, residual, removals = lt_codec.peel(
        np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64), 1)
    assert (decoded.tolist(), rounds, residual.tolist(), removals) == ([False], [], [], 0)

    # symbols 0 and 1 both hold input 0 alone: round one releases symbol 0 only
    twice = [CodedSymbol((0,), b"\x01"), CodedSymbol((0,), b"\x01"),
             CodedSymbol((0, 1), b"\x03")]
    decoded, rounds, residual, removals = lt_codec.peel(*symbols_csr(twice), 2)
    assert [(s.tolist(), v.tolist()) for s, v in rounds] == [([0], [0]), ([2], [1])]
    assert (decoded.tolist(), residual.tolist(), removals) == ([True, True], [0, 0, 0], 4)
    assert decode(twice, 2) == ([b"\x01", b"\x02"], 2)

    # every input is held by two symbols: the whole graph is a stopping set
    cycle = [CodedSymbol(pair, b"\x00") for pair in ((0, 1), (1, 2), (0, 2))]
    decoded, rounds, residual, removals = lt_codec.peel(*symbols_csr(cycle), 3)
    assert (decoded.tolist(), rounds, residual.tolist(), removals) == (
        [False] * 3, [], [2] * 3, 0)


def test_decode_matches_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        k, inputs, symbols = random_instance(rng)
        values, count = decode(symbols, k)
        truth = oracle_decode(symbols, k)
        assert count == len(truth)
        for v, value in truth.items():
            assert values[v] == value.to_bytes(1, "big")
            assert values[v] == inputs[v]


@pytest.mark.parametrize("nbytes", [0, 1, 3, 8])
def test_decode_values_are_input_bytes(nbytes):
    # decode reads its values through a void view of the k x B value matrix;
    # numpy >= 1.14 turns unstructured void items into bytes, untrimmed (the
    # declared floor is 1.22). A zero-width row has no void view of its own.
    rng = np.random.default_rng(60 + nbytes)
    k = 40
    inputs = random_inputs(rng, k, nbytes)
    if nbytes:  # trailing zero bytes stay
        inputs[::2] = [v[:-1] + b"\x00" for v in inputs[::2]]
    dist = DegreeDistribution.from_mapping({1: 0.5, 2: 0.5})
    symbols = encode(inputs, dist, 30, rng_seed=nbytes)
    state = DecoderState(symbols, k)
    state.run()
    values, count = decode(symbols, k)
    assert 0 < count < k
    assert values == [state.values[v].tobytes() if hit else None
                      for v, hit in enumerate(state.decoded.tolist())]
    assert all(type(v) is bytes and v == inputs[i] for i, v in enumerate(values) if v is not None)
    assert decode(encode(inputs, dist, 0, rng_seed=1), k) == ([None] * k, 0)


def test_decode_order_independent():
    # the oracle re-scans symbols in index order, the decoder releases every
    # degree-one symbol of a round at once: both must recover the same values
    rng = np.random.default_rng(1717)
    for _ in range(500):
        k, inputs, symbols = random_instance(rng, k_max=50, n_max=100)
        values, count = decode(symbols, k)
        truth = oracle_decode(symbols, k)
        assert count == len(truth)
        assert values == [
            truth[v].to_bytes(1, "big") if v in truth else None for v in range(k)
        ]
        for i, value in enumerate(values):
            if value is not None:
                assert value == inputs[i]


def test_decoder_state_reads_encode_arrays_as_packed_objects():
    rng = np.random.default_rng(44)
    k, nbytes = 300, 2
    inputs = random_inputs(rng, k, nbytes)
    symbols = encode(inputs, robust_soliton(k, 0.1, 0.5), 280, rng_seed=17)
    direct, packed = DecoderState(symbols, k), DecoderState(list(symbols), k)
    assert direct.payload is symbols.payload and direct.neighbors is symbols.neighbors
    for state in (direct, packed):
        state.run()
    assert direct.decoded_count > 0
    for name in ("offsets", "neighbors", "payload", "residual_degree", "decoded", "values"):
        assert np.array_equal(getattr(direct, name), getattr(packed, name)), name
    assert (direct.edge_removals, direct.decoded_count) == (
        packed.edge_removals, packed.decoded_count)
    assert decode(symbols, k) == decode(list(symbols), k)
    with pytest.raises(ValueError, match="references input"):
        DecoderState(symbols, int(symbols.neighbors.max()))


def test_decode_xor_consistency_and_work_bound():
    rng = np.random.default_rng(8)
    k, inputs, symbols = random_instance(rng, k_max=40, n_max=80)
    state = DecoderState(symbols, k)
    state.run()
    values, _ = decode(symbols, k)
    depleted_edges = 0
    for idx, sym in enumerate(symbols):
        if state.residual_degree[idx] == 0:
            depleted_edges += len(sym.neighbors)
            # re-encoding the recovered inputs reproduces the payload
            assert xor_payload([values[v] for v in sym.neighbors],
                               range(len(sym.neighbors))) == sym.payload
    assert state.edge_removals == depleted_edges


def test_residual_sets_never_contain_recovered():
    # a symbol's residual degree counts its neighbours that peel left undecoded
    rng = np.random.default_rng(12)
    k, _, symbols = random_instance(rng, k_max=30, n_max=60)
    decoded, _, residual, _ = lt_codec.peel(*symbols_csr(symbols), k)
    for idx, sym in enumerate(symbols):
        unrecovered = [v for v in sym.neighbors if not decoded[v]]
        assert residual[idx] == len(unrecovered)


# decode's (decoded count, edge_removals) inside run_trial at k = 10**4, on
# the benchmark's mc_trials cells, as the one-symbol-at-a-time decoder gave
# them: cell -> (distribution, r, receive model, base seed, counts)
_DESIGN = truncated_soliton(0.75)
GOLDEN_COUNTS = {
    "degree1_r0.2": (DEG1, 0.2, "deterministic_n", 0, (1821, 2000)),
    "robust_r0.9": (robust_soliton(10_000, 0.1, 0.5), 0.9, "poisson_n", 1, (457, 6706)),
    "degree1_r0.5": (DEG1, 0.5, "poisson_n", 2, (3911, 4999)),
    "robust_r1.3": (robust_soliton(10_000, 0.1, 0.5), 1.3, "deterministic_n", 3,
                    (10000, 196470)),
    "degree1_r0.8": (DEG1, 0.8, "deterministic_n", 4, (5477, 8000)),
    "design0.75": (perturb(_DESIGN.distribution, 0.01), _DESIGN.a, "poisson_n", 5,
                   (7469, 19145)),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_COUNTS))
def test_decode_golden_counts_k10000(monkeypatch, case):
    dist, r, model, base_seed, expected = GOLDEN_COUNTS[case]
    counts = []

    def spy(symbols, k):
        state = DecoderState(symbols, k)
        state.run()
        counts.append((state.decoded_count, state.edge_removals))
        return decode(symbols, k)

    monkeypatch.setattr(sim_harness, "decode", spy)
    config = sim_harness.SimulationConfig(distribution=dist, k=10_000, r_values=(r,),
                                          trials=1, receive_model=model, base_seed=base_seed)
    z = sim_harness.run_trial(config, r, 0)
    assert counts == [expected]
    assert z == expected[0] / 10_000


def test_full_recovery_with_overhead():
    rng = np.random.default_rng(31)
    k = 500
    inputs = random_inputs(rng, k)
    dist = robust_soliton(k, 0.03, 0.5)
    symbols = encode(inputs, dist, int(1.25 * k), rng_seed=77)
    values, count = decode(symbols, k)
    assert count == k
    assert values == inputs

