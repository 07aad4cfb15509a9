/**
 * @file
 * Engine-level tests: resolved configurations (Table V PTX pattern,
 * tuner integration, launch bounds), and — most importantly — that
 * every engine configuration signs byte-identically to the spec
 * oracle (tests/oracle).
 */

#include <gtest/gtest.h>

#include "../sphincs/oracle_ref.hh"
#include "common/hex.hh"
#include "common/random.hh"
#include "core/engine.hh"

using namespace herosign;
using namespace herosign::core;
using gpu::DeviceProps;
using sphincs::Params;
using sphincs::SphincsPlus;

namespace
{

const DeviceProps &
rtx4090()
{
    static DeviceProps d = DeviceProps::rtx4090();
    return d;
}

struct KeyedScheme
{
    SphincsPlus scheme;
    sphincs::KeyPair kp;

    explicit KeyedScheme(const Params &p, uint64_t seed = 77)
        : scheme(p), kp([&] {
              Rng rng(seed);
              return scheme.keygen(rng);
          }())
    {
    }
};

} // namespace

using EngineParam = std::tuple<const Params *, const char *>;

class EngineSignatureMatch : public ::testing::TestWithParam<EngineParam>
{
};

TEST_P(EngineSignatureMatch, ByteIdenticalToReference)
{
    const auto [pp, cfg_name] = GetParam();
    const Params &p = *pp;

    EngineConfig cfg;
    const std::string cn = cfg_name;
    if (cn == "baseline")
        cfg = EngineConfig::baseline();
    else if (cn == "mmtp")
        cfg = EngineConfig::stepMmtp();
    else if (cn == "fuse")
        cfg = EngineConfig::stepFuse();
    else if (cn == "ptx")
        cfg = EngineConfig::stepPtx();
    else if (cn == "hybrid")
        cfg = EngineConfig::stepHybridMem();
    else
        cfg = EngineConfig::hero();

    SignEngine engine(p, rtx4090(), cfg);
    KeyedScheme ks(p);

    Rng rng(123);
    ByteVec msg = rng.bytes(48);

    auto outcome = engine.sign(msg, ks.kp.sk);
    ByteVec ref = oracle::oracleSign(ks.kp.sk, msg);

    ASSERT_EQ(outcome.signature.size(), ref.size());
    EXPECT_EQ(hexEncode(outcome.signature), hexEncode(ref))
        << p.name << " config " << cn;
    EXPECT_TRUE(ks.scheme.verify(msg, outcome.signature, ks.kp.pk));
}

namespace
{

std::string
engineParamName(const ::testing::TestParamInfo<EngineParam> &info)
{
    std::string name = std::get<0>(info.param)->name;
    return name.substr(name.find('-') + 1) + "_" +
           std::get<1>(info.param);
}

} // namespace

INSTANTIATE_TEST_SUITE_P(ConfigsAndSets, EngineSignatureMatch,
    ::testing::Combine(
        ::testing::Values(&Params::sphincs128f(),
                          &Params::sphincs192f(),
                          &Params::sphincs256f()),
        ::testing::Values("baseline", "hero")),
    engineParamName);

TEST(Engine, AblationStepsAllSignCorrectly)
{
    const Params &p = Params::sphincs128f();
    KeyedScheme ks(p);
    Rng rng(5);
    ByteVec msg = rng.bytes(32);
    ByteVec ref = oracle::oracleSign(ks.kp.sk, msg);

    for (auto cfg : {EngineConfig::stepMmtp(), EngineConfig::stepFuse(),
                     EngineConfig::stepPtx(),
                     EngineConfig::stepHybridMem(),
                     EngineConfig::stepFreeBank()}) {
        SignEngine engine(p, rtx4090(), cfg);
        auto outcome = engine.sign(msg, ks.kp.sk);
        EXPECT_EQ(hexEncode(outcome.signature), hexEncode(ref))
            << cfg.name;
    }
}

TEST(Engine, RandomizedSigningMatchesReference)
{
    const Params &p = Params::sphincs128f();
    KeyedScheme ks(p);
    SignEngine engine(p, rtx4090(), EngineConfig::hero());
    Rng rng(6);
    ByteVec msg = rng.bytes(16);
    ByteVec opt = rng.bytes(p.n);
    auto outcome = engine.sign(msg, ks.kp.sk, opt);
    EXPECT_EQ(hexEncode(outcome.signature),
              hexEncode(oracle::oracleSign(ks.kp.sk, msg, opt)));
}

TEST(Engine, Table5PtxSelectionPattern)
{
    // Paper Table V on the RTX 4090: FORS selects PTX on all sets;
    // TREE and WOTS+ stay native on 128f/192f and flip to PTX on
    // 256f. Our selection is profiling-driven; the pattern must
    // emerge from the model.
    struct Expect
    {
        const Params *p;
        bool fors_ptx, tree_ptx, wots_ptx;
    };
    const Expect table[] = {
        {&Params::sphincs128f(), true, false, false},
        {&Params::sphincs192f(), true, false, false},
        {&Params::sphincs256f(), true, true, true},
    };
    for (const auto &e : table) {
        SignEngine engine(*e.p, rtx4090(), EngineConfig::hero());
        const auto &ks = engine.kernels();
        EXPECT_EQ(ks[0].variant == Sha256Variant::Ptx, e.fors_ptx)
            << e.p->name << " FORS";
        EXPECT_EQ(ks[1].variant == Sha256Variant::Ptx, e.tree_ptx)
            << e.p->name << " TREE";
        EXPECT_EQ(ks[2].variant == Sha256Variant::Ptx, e.wots_ptx)
            << e.p->name << " WOTS";
    }
}

TEST(Engine, BaselineNeverSelectsPtx)
{
    SignEngine engine(Params::sphincs128f(), rtx4090(),
                      EngineConfig::baseline());
    for (const auto &k : engine.kernels())
        EXPECT_EQ(k.variant, Sha256Variant::Native);
}

TEST(Engine, TreeOccupancyLiftAt256f)
{
    // §III-C2: PTX lifts TREE_Sign occupancy from ~19% to 37.5%.
    SignEngine baseline(Params::sphincs256f(), rtx4090(),
                        EngineConfig::baseline());
    SignEngine hero(Params::sphincs256f(), rtx4090(),
                    EngineConfig::hero());
    const double base_occ =
        baseline.kernels()[1].timing.theoreticalOccupancy;
    const double hero_occ =
        hero.kernels()[1].timing.theoreticalOccupancy;
    EXPECT_NEAR(base_occ, 0.1875, 0.02);
    EXPECT_NEAR(hero_occ, 0.375, 0.02);
    EXPECT_GT(hero_occ / base_occ, 1.7);
}

TEST(Engine, TunerDrivesForsGeometry)
{
    SignEngine engine(Params::sphincs128f(), rtx4090(),
                      EngineConfig::hero());
    EXPECT_EQ(engine.forsGeometry().treesPerSet, 11u);
    EXPECT_EQ(engine.forsGeometry().fusedSets, 3u);
    EXPECT_EQ(engine.forsGeometry().threadsPerSet, 704u);
    EXPECT_FALSE(engine.forsGeometry().relax);

    SignEngine e256(Params::sphincs256f(), rtx4090(),
                    EngineConfig::hero());
    EXPECT_TRUE(e256.forsGeometry().relax);
}

TEST(Engine, BaselineForsIsSingleTree)
{
    SignEngine engine(Params::sphincs128f(), rtx4090(),
                      EngineConfig::baseline());
    EXPECT_EQ(engine.forsGeometry().treesPerSet, 1u);
    EXPECT_EQ(engine.forsGeometry().fusedSets, 1u);
    EXPECT_EQ(engine.forsGeometry().threadsPerSet, 64u);
}

TEST(Engine, HeroFasterThanBaselinePerKernel)
{
    // Table VIII: every kernel speeds up on every parameter set.
    for (const Params *pp :
         {&Params::sphincs128f(), &Params::sphincs192f(),
          &Params::sphincs256f()}) {
        SignEngine baseline(*pp, rtx4090(), EngineConfig::baseline());
        SignEngine hero(*pp, rtx4090(), EngineConfig::hero());
        for (int i = 0; i < 3; ++i) {
            const double base_us =
                baseline.kernels()[i].timing.durationUs;
            const double hero_us = hero.kernels()[i].timing.durationUs;
            EXPECT_LT(hero_us, base_us)
                << pp->name << " kernel " << i;
        }
    }
}

TEST(Engine, ForsConflictFreeUnderHero)
{
    SignEngine hero(Params::sphincs128f(), rtx4090(),
                    EngineConfig::hero());
    const auto &fors = hero.kernels()[0];
    EXPECT_EQ(fors.profile.counters.sharedLoadConflicts, 0u);
    EXPECT_EQ(fors.profile.counters.sharedStoreConflicts, 0u);

    SignEngine base(Params::sphincs128f(), rtx4090(),
                    EngineConfig::baseline());
    EXPECT_GT(base.kernels()[0].profile.counters.sharedLoadConflicts,
              0u);
}

TEST(Engine, ExplicitForsOverrideRespected)
{
    EngineConfig cfg = EngineConfig::hero();
    cfg.autoTune = false;
    cfg.forsConfig = ForsConfig{4, 2, 256, false, 1};
    cfg.forsConfig.threadsPerSet = 4 * 64;
    SignEngine engine(Params::sphincs128f(), rtx4090(), cfg);
    EXPECT_EQ(engine.forsGeometry().treesPerSet, 4u);
    EXPECT_EQ(engine.forsGeometry().fusedSets, 2u);
}

TEST(Engine, WorksOnAllPlatforms)
{
    Rng rng(9);
    ByteVec msg = rng.bytes(8);
    const Params &p = Params::sphincs128f();
    KeyedScheme ks(p);
    ByteVec ref = oracle::oracleSign(ks.kp.sk, msg);
    for (const auto &dev : DeviceProps::allPlatforms()) {
        SignEngine engine(p, dev, EngineConfig::hero());
        auto outcome = engine.sign(msg, ks.kp.sk);
        EXPECT_EQ(hexEncode(outcome.signature), hexEncode(ref))
            << dev.name;
    }
}
