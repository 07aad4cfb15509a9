/**
 * @file
 * google-benchmark micro benches for the hash substrate: native vs
 * PTX-flavoured SHA-256, HMAC and MGF1.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "hash/hmac.hh"
#include "hash/mgf1.hh"
#include "hash/sha256.hh"
#include "hash/sha256xN.hh"

using namespace herosign;

namespace
{

void
BM_Sha256Native(benchmark::State &state)
{
    Rng rng(1);
    ByteVec data = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto d = Sha256::digest(data, Sha256Variant::Native);
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(state.iterations() * data.size());
}

void
BM_Sha256Ptx(benchmark::State &state)
{
    Rng rng(1);
    ByteVec data = rng.bytes(state.range(0));
    for (auto _ : state) {
        auto d = Sha256::digest(data, Sha256Variant::Ptx);
        benchmark::DoNotOptimize(d);
    }
    state.SetBytesProcessed(state.iterations() * data.size());
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
BENCHMARK(BM_Sha256Ptx)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_Sha256x16)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_Sha256x8)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_Sha256x8ScalarLanes)->Arg(64)->Arg(576)->Arg(4096);
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);
BENCHMARK(BM_Mgf1)->Arg(34)->Arg(49);
