/**
 * @file
 * google-benchmark micro benches for the CPU signer's public calls:
 * keygen, sign (a SignTask group of one) and verify (verifyBatch with
 * count 1) per parameter set, on one thread.
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

const Params &
paramsByIndex(int64_t idx)
{
    return Params::all().at(static_cast<size_t>(idx));
}

void
BM_Keygen(benchmark::State &state)
{
    SphincsPlus scheme(paramsByIndex(state.range(0)));
    Rng rng(1);
    for (auto _ : state) {
        auto kp = scheme.keygen(rng);
        benchmark::DoNotOptimize(kp.pk.pkRoot.data());
    }
    state.SetLabel(paramsByIndex(state.range(0)).name);
}

void
BM_Sign(benchmark::State &state)
{
    SphincsPlus scheme(paramsByIndex(state.range(0)));
    Rng rng(2);
    auto kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(64);
    for (auto _ : state) {
        auto sig = scheme.sign(msg, kp.sk);
        benchmark::DoNotOptimize(sig.data());
    }
    state.SetLabel(paramsByIndex(state.range(0)).name);
}

void
BM_Verify(benchmark::State &state)
{
    SphincsPlus scheme(paramsByIndex(state.range(0)));
    Rng rng(3);
    auto kp = scheme.keygen(rng);
    ByteVec msg = rng.bytes(64);
    auto sig = scheme.sign(msg, kp.sk);
    for (auto _ : state) {
        bool ok = scheme.verify(msg, sig, kp.pk);
        benchmark::DoNotOptimize(ok);
    }
    state.SetLabel(paramsByIndex(state.range(0)).name);
}

} // namespace

BENCHMARK(BM_Keygen)->Arg(0)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Sign)->Arg(0)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_Verify)->Arg(0)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);
