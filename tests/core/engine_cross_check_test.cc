/**
 * @file
 * Cross-check: core::SignEngine (the GPU-simulated kernel path) must
 * produce the spec oracle's signatures (tests/oracle) byte for byte
 * for keys expanded from the same fixed seed — across parameter sets,
 * engine configurations, message sizes and devices. This is the
 * contract every performance change has to preserve.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "../sphincs/oracle_ref.hh"
#include "common/hex.hh"
#include "core/engine.hh"

using namespace herosign;
using namespace herosign::core;
using gpu::DeviceProps;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

ByteVec
fixedSeed(const Params &p)
{
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), static_cast<uint8_t>(0));
    return seed;
}

ByteVec
patternMsg(size_t len)
{
    ByteVec msg(len);
    for (size_t i = 0; i < len; ++i)
        msg[i] = static_cast<uint8_t>(0x37 + 11 * i);
    return msg;
}

} // namespace

TEST(EngineCrossCheck, SameSeedSameSignatureAllParamSets)
{
    for (const Params *pp :
         {&Params::sphincs128f(), &Params::sphincs192f(),
          &Params::sphincs256f()}) {
        SphincsPlus scheme(*pp);
        auto kp = scheme.keygenFromSeed(fixedSeed(*pp));
        SignEngine engine(*pp, DeviceProps::rtx4090(),
                          EngineConfig::hero());

        ByteVec msg = patternMsg(48);
        auto outcome = engine.sign(msg, kp.sk);
        ByteVec ref = oracle::oracleSign(kp.sk, msg);
        EXPECT_EQ(hexEncode(outcome.signature), hexEncode(ref))
            << pp->name;
        EXPECT_TRUE(scheme.verify(msg, outcome.signature, kp.pk));
    }
}

TEST(EngineCrossCheck, AllConfigPresetsMatchReference)
{
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    ByteVec msg = patternMsg(32);
    ByteVec ref = oracle::oracleSign(kp.sk, msg);

    for (auto cfg :
         {EngineConfig::baseline(), EngineConfig::stepMmtp(),
          EngineConfig::stepFuse(), EngineConfig::stepPtx(),
          EngineConfig::stepHybridMem(), EngineConfig::stepFreeBank(),
          EngineConfig::hero()}) {
        SignEngine engine(p, DeviceProps::rtx4090(), cfg);
        auto outcome = engine.sign(msg, kp.sk);
        EXPECT_EQ(hexEncode(outcome.signature), hexEncode(ref))
            << cfg.name;
    }
}

TEST(EngineCrossCheck, MessageSizeSweep)
{
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    SignEngine engine(p, DeviceProps::rtx4090(), EngineConfig::hero());

    for (size_t len : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                       size_t{65}, size_t{1000}}) {
        ByteVec msg = patternMsg(len);
        auto outcome = engine.sign(msg, kp.sk);
        EXPECT_EQ(hexEncode(outcome.signature),
                  hexEncode(oracle::oracleSign(kp.sk, msg)))
            << "len=" << len;
    }
}

TEST(EngineCrossCheck, OptRandMatchesReference)
{
    const Params &p = Params::sphincs192f();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    SignEngine engine(p, DeviceProps::rtx4090(), EngineConfig::hero());

    ByteVec msg = patternMsg(24);
    ByteVec opt(p.n, 0x5a);
    auto outcome = engine.sign(msg, kp.sk, opt);
    EXPECT_EQ(hexEncode(outcome.signature),
              hexEncode(oracle::oracleSign(kp.sk, msg, opt)));
}

TEST(EngineCrossCheck, EveryPlatformMatchesReference)
{
    const Params &p = Params::sphincs128f();
    SphincsPlus scheme(p);
    auto kp = scheme.keygenFromSeed(fixedSeed(p));
    ByteVec msg = patternMsg(16);
    ByteVec ref = oracle::oracleSign(kp.sk, msg);

    for (const auto &dev : DeviceProps::allPlatforms()) {
        SignEngine engine(p, dev, EngineConfig::hero());
        auto outcome = engine.sign(msg, kp.sk);
        EXPECT_EQ(hexEncode(outcome.signature), hexEncode(ref))
            << dev.name;
    }
}
