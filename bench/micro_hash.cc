/**
 * @file
 * google-benchmark micro benches for the hash substrate: SHA-256, the
 * native vs PTX-branch compression per 64-byte block, HMAC and MGF1,
 * plus the WOTS+ chain entry against the fused one-block kernel it
 * replaces on full groups.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "hash/hmac.hh"
#include "hash/mgf1.hh"
#include "hash/sha256.hh"
#include "hash/sha256xN.hh"
#include "sphincs/thashx.hh"

using namespace herosign;

namespace
{

void
BM_Sha256Native(benchmark::State &state)
{
    Rng rng(1);
    ByteVec data = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto d = Sha256::digest(data);
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(state.iterations() * data.size());
}

/**
 * One compression per iteration, chained through the state: the
 * native compression every signing path runs against the PTX-branch
 * emulation the GPU cost model prices.
 */
void
BM_Sha256Compress(benchmark::State &state,
                  void (*compress)(std::array<uint32_t, 8> &,
                                   const uint8_t *))
{
    Rng rng(1);
    ByteVec block = rng.bytes(Sha256::blockSize);
    std::array<uint32_t, 8> h = Sha256().midState().h;
    for (auto _ : state) {
        compress(h, block.data());
        benchmark::DoNotOptimize(h);
    }
    state.SetBytesProcessed(state.iterations() * Sha256::blockSize);
}

void
BM_HmacSha256(benchmark::State &state)
{
    Rng rng(2);
    ByteVec key = rng.bytes(32);
    ByteVec msg = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto d = HmacSha256::mac(key, msg);
        benchmark::DoNotOptimize(d);
    }
}

/**
 * W messages through the lane engine in one shot; compare the x16
 * (AVX-512), x8 (AVX2) and forced-scalar rows against W x
 * BM_Sha256Native for the lanes-vs-scalar throughput columns.
 */
void
runSha256Lanes(benchmark::State &state, unsigned width,
               bool force_scalar, bool no_avx512)
{
    Rng rng(1);
    const size_t len = static_cast<size_t>(state.range(0));
    ByteVec data[Sha256Lanes::maxLanes];
    const uint8_t *ptrs[Sha256Lanes::maxLanes];
    for (size_t l = 0; l < width; ++l) {
        data[l] = rng.bytes(len);
        ptrs[l] = data[l].data();
    }
    uint8_t digests[Sha256Lanes::maxLanes][Sha256Lanes::digestSize];
    uint8_t *dptrs[Sha256Lanes::maxLanes];
    for (size_t l = 0; l < width; ++l)
        dptrs[l] = digests[l];

    sha256LanesForceScalar(force_scalar);
    sha256LanesDisableAvx512(no_avx512);
    for (auto _ : state) {
        Sha256Lanes hasher(width);
        hasher.update(ptrs, len);
        hasher.final(dptrs);
        benchmark::DoNotOptimize(digests);
    }
    sha256LanesForceScalar(false);
    sha256LanesDisableAvx512(false);
    state.SetBytesProcessed(state.iterations() * len * width);
    state.SetItemsProcessed(state.iterations() * width);
}

void
BM_Sha256x16(benchmark::State &state)
{
    runSha256Lanes(state, 16, false, false);
}

void
BM_Sha256x8(benchmark::State &state)
{
    runSha256Lanes(state, 8, false, true);
}

void
BM_Sha256x8ScalarLanes(benchmark::State &state)
{
    runSha256Lanes(state, 8, true, false);
}

/** The Table I parameter set with hash output size @p n. */
const sphincs::Params &
paramsForN(int64_t n)
{
    return n == 16   ? sphincs::Params::sphincs128f()
           : n == 24 ? sphincs::Params::sphincs192f()
                     : sphincs::Params::sphincs256f();
}

constexpr unsigned chainLanes = 16;

/**
 * 16 chains x (w - 1) = 15 F steps through thashChainX: the full
 * group a WOTS+ leaf batch hands it on AVX-512. Items are
 * compressions, so the Mcomp/s column compares directly with
 * BM_Final16SeededSteps.
 */
void
BM_ChainX16(benchmark::State &state)
{
    if (!sha256LanesAvx512Active()) {
        state.SkipWithError("AVX-512 dispatch not active");
        return;
    }
    const sphincs::Params &p = paramsForN(state.range(0));
    Rng rng(4);
    const sphincs::Context ctx(p, rng.bytes(p.n), rng.bytes(p.n));
    const uint32_t steps = p.wotsW - 1;
    ByteVec vals[chainLanes];
    uint8_t *vptrs[chainLanes];
    sphincs::Address adrs[chainLanes];
    uint32_t start[chainLanes] = {};
    for (unsigned l = 0; l < chainLanes; ++l) {
        vals[l] = rng.bytes(p.n);
        vptrs[l] = vals[l].data();
        adrs[l].setType(sphincs::AddrType::WotsHash);
        adrs[l].setKeypair(3);
        adrs[l].setChain(l);
    }
    for (auto _ : state) {
        sphincs::thashChainX(vptrs, ctx, adrs, start, steps, chainLanes);
        benchmark::DoNotOptimize(vptrs[0]);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * chainLanes * steps);
}

/**
 * The per-step kernel on the same blocks: 15 sha256Final16SeededAvx512
 * calls on 16 prepared F blocks, with no block building or copy-back
 * between them.
 */
void
BM_Final16SeededSteps(benchmark::State &state)
{
    if (!sha256LanesAvx512Active()) {
        state.SkipWithError("AVX-512 dispatch not active");
        return;
    }
    const sphincs::Params &p = paramsForN(state.range(0));
    Rng rng(4);
    const sphincs::Context ctx(p, rng.bytes(p.n), rng.bytes(p.n));
    const uint32_t steps = p.wotsW - 1;
    const size_t data_len = sphincs::Address::compressedSize + p.n;
    alignas(64) uint8_t blocks[chainLanes][Sha256::blockSize] = {};
    const uint8_t *bptrs[chainLanes];
    uint8_t digests[chainLanes][Sha256::digestSize];
    uint8_t *dptrs[chainLanes];
    for (unsigned l = 0; l < chainLanes; ++l) {
        const ByteVec data = rng.bytes(data_len);
        std::memcpy(blocks[l], data.data(), data_len);
        blocks[l][data_len] = 0x80;
        storeBe64(blocks[l] + Sha256::blockSize - 8,
                  (ctx.seededState().bytesCompressed + data_len) * 8);
        bptrs[l] = blocks[l];
        dptrs[l] = digests[l];
    }
    for (auto _ : state) {
        for (uint32_t s = 0; s < steps; ++s)
            sha256Final16SeededAvx512(ctx.seededState().h, bptrs, dptrs);
        benchmark::DoNotOptimize(digests);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * chainLanes * steps);
}

void
BM_Mgf1(benchmark::State &state)
{
    Rng rng(3);
    ByteVec seed = rng.bytes(64);
    ByteVec out(state.range(0));
    for (auto _ : state) {
        mgf1Sha256(out, seed);
        benchmark::DoNotOptimize(out.data());
    }
}

} // namespace

BENCHMARK(BM_Sha256Native)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK_CAPTURE(BM_Sha256Compress, native, sha256CompressNative);
BENCHMARK_CAPTURE(BM_Sha256Compress, ptx, sha256CompressPtx);
BENCHMARK(BM_Sha256x16)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_Sha256x8)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_Sha256x8ScalarLanes)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_ChainX16)->Arg(16)->Arg(24)->Arg(32);
BENCHMARK(BM_Final16SeededSteps)->Arg(16)->Arg(24)->Arg(32);
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);
BENCHMARK(BM_Mgf1)->Arg(34)->Arg(49);
