/**
 * @file
 * Profile persistence: JSON round-trips exactly, every malformed or
 * stale document is rejected with a typed ProfileError, and the
 * fromProfile() construction path is indistinguishable from setting
 * the same knobs directly — including out-of-range values, which
 * clamp identically on both paths. Explicit user overrides always
 * beat profile values.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "../batch/batch_test_util.hh"
#include "batch/batch_signer.hh"
#include "service/key_store.hh"
#include "service/sign_service.hh"
#include "sphincs/sphincs.hh"
#include "tune/profile.hh"

using namespace herosign;
using batchtest::miniParams;
using tune::BatchKnobOverrides;
using tune::HostFingerprint;
using tune::KnobConfig;
using tune::Profile;
using tune::ProfileError;
using tune::ServiceKnobOverrides;

namespace
{

Profile
sampleProfile()
{
    Profile p;
    p.fingerprint = HostFingerprint::current("128f");
    p.config.signWorkers = 2;
    p.config.signShards = 1;
    p.config.signCoalesce = 16;
    p.config.verifyWorkers = 1;
    p.config.verifyShards = 1;
    p.config.verifyCoalesce = 64;
    p.config.cacheCapacity = 4;
    p.tunedOpsPerSec = 1234.5;
    p.baselineOpsPerSec = 1000.25;
    p.tunedP99Ms = 7.5;
    p.seed = 42;
    p.trials = 17;
    return p;
}

/** RAII temp file that disappears with the test. */
struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &name)
        : path(std::string(::testing::TempDir()) + name)
    {
    }
    ~TempPath() { std::remove(path.c_str()); }
};

} // namespace

TEST(HostFingerprintTest, CurrentIsPlausible)
{
    const auto fp = HostFingerprint::current("128f");
    EXPECT_GE(fp.cores, 1u);
    EXPECT_TRUE(fp.dispatch == "avx512" || fp.dispatch == "avx2" ||
                fp.dispatch == "portable")
        << fp.dispatch;
    EXPECT_EQ(fp.paramSet, "128f");
    EXPECT_TRUE(fp.describeMismatch(fp).empty());

    auto other = fp;
    other.paramSet = "256f";
    EXPECT_NE(fp, other);
    EXPECT_NE(fp.describeMismatch(other).find("param"),
              std::string::npos);
}

TEST(ProfileTest, JsonRoundTripsExactly)
{
    const Profile p = sampleProfile();
    const Profile q = Profile::fromJson(p.toJson());
    EXPECT_EQ(q.fingerprint, p.fingerprint);
    EXPECT_EQ(q.config, p.config);
    EXPECT_DOUBLE_EQ(q.tunedOpsPerSec, p.tunedOpsPerSec);
    EXPECT_DOUBLE_EQ(q.baselineOpsPerSec, p.baselineOpsPerSec);
    EXPECT_DOUBLE_EQ(q.tunedP99Ms, p.tunedP99Ms);
    EXPECT_EQ(q.seed, p.seed);
    EXPECT_EQ(q.trials, p.trials);
    // Stable serialization => stable content hash.
    EXPECT_EQ(q.toJson(), p.toJson());
    EXPECT_EQ(q.hash(), p.hash());
}

TEST(ProfileTest, MalformedJsonRejectedWithParseError)
{
    const std::string good = sampleProfile().toJson();
    const std::string bad_docs[] = {
        "",
        "not json at all",
        "{",
        good.substr(0, good.size() / 2), // truncated mid-document
        "[1, 2, 3]",                     // wrong top-level shape
        "{\"version\": 1}",              // missing required sections
        "{\"version\": 1, \"config\": {}}", // missing fingerprint
        good + "trailing garbage",
    };
    for (const std::string &doc : bad_docs) {
        try {
            (void)Profile::fromJson(doc);
            FAIL() << "accepted malformed profile: "
                   << doc.substr(0, 40);
        } catch (const ProfileError &e) {
            EXPECT_EQ(e.kind(), ProfileError::Kind::Parse)
                << e.what();
        }
    }
}

TEST(ProfileTest, VersionMismatchRejectedAsVersion)
{
    std::string doc = sampleProfile().toJson();
    const auto pos = doc.find("\"version\": 1");
    ASSERT_NE(pos, std::string::npos);
    doc.replace(pos, 12, "\"version\": 9");
    try {
        (void)Profile::fromJson(doc);
        FAIL() << "accepted future-versioned profile";
    } catch (const ProfileError &e) {
        EXPECT_EQ(e.kind(), ProfileError::Kind::Version);
    }
}

TEST(ProfileTest, SaveLoadAndFingerprintGuard)
{
    const Profile p = sampleProfile();
    TempPath tmp("herosign_profile_test.json");
    tune::saveProfile(tmp.path, p);
    const Profile q = tune::loadProfile(tmp.path);
    EXPECT_EQ(q.config, p.config);

    // Matching fingerprint loads; any mismatch is typed Fingerprint.
    EXPECT_EQ(tune::loadProfileMatching(tmp.path, p.fingerprint)
                  .config,
              p.config);
    auto stale = p.fingerprint;
    stale.dispatch =
        p.fingerprint.dispatch == "portable" ? "avx512" : "portable";
    try {
        (void)tune::loadProfileMatching(tmp.path, stale);
        FAIL() << "accepted stale-fingerprint profile";
    } catch (const ProfileError &e) {
        EXPECT_EQ(e.kind(), ProfileError::Kind::Fingerprint);
    }

    // Missing file is a typed Io failure.
    try {
        (void)tune::loadProfile(tmp.path + ".does-not-exist");
        FAIL() << "loaded a missing file";
    } catch (const ProfileError &e) {
        EXPECT_EQ(e.kind(), ProfileError::Kind::Io);
    }
}

TEST(ProfileTest, OutOfRangeKnobsClampIdenticallyToDirectConfig)
{
    // A hostile/corrupt-but-parseable profile: every knob out of
    // range. Loading it through fromProfile() must produce exactly
    // the construction a user setting those values directly gets.
    Profile p = sampleProfile();
    p.config.signWorkers = 0;
    p.config.signShards = 0;
    p.config.signCoalesce = 33; // beyond the 16-lane lockstep bound
    p.config.verifyWorkers = 0;
    p.config.verifyShards = 0;
    p.config.cacheCapacity = 0;

    const auto params = miniParams();
    sphincs::SphincsPlus scheme(params);
    const auto kp = scheme.keygenFromSeed(batchtest::fixedSeed(params));

    // Batch plane: direct vs profile-loaded BatchSigner.
    batch::BatchSignerConfig direct;
    direct.workers = 0;
    direct.shards = 0;
    direct.laneGroup = 33;
    batch::BatchSigner a(params, kp.sk, direct);
    batch::BatchSigner b(params, kp.sk,
                         batch::BatchSignerConfig::fromProfile(p));
    EXPECT_EQ(a.workers(), b.workers());
    EXPECT_EQ(a.shards(), b.shards());
    EXPECT_EQ(a.laneGroup(), b.laneGroup());
    EXPECT_EQ(b.workers(), 1u);
    EXPECT_EQ(b.laneGroup(), 16u);

    // Service plane: direct vs profile-loaded SignService. The
    // profile path caps the sign window at the 16-lane lockstep
    // bound (the largest group the scheduler signs in one pass), so
    // the direct equivalent of an over-wide profile value is 16.
    service::KeyStore store;
    store.addKey("t", kp);
    service::ServiceConfig sdirect;
    sdirect.workers = 0;
    sdirect.shards = 0;
    sdirect.signCoalesce = 16;
    sdirect.verifyWorkers = 0;
    sdirect.verifyShards = 0;
    sdirect.contextCacheCapacity = 0;
    service::SignService sa(store, sdirect);
    service::SignService sb(store,
                            service::ServiceConfig::fromProfile(p));
    EXPECT_EQ(sa.workers(), sb.workers());
    EXPECT_EQ(sa.coalesceWindow(), sb.coalesceWindow());
    EXPECT_EQ(sb.workers(), 1u);
}

TEST(ProfileTest, UserOverridesAlwaysWin)
{
    const Profile p = sampleProfile();

    ServiceKnobOverrides su;
    su.workers = 7;
    su.contextCacheCapacity = 99;
    const auto scfg = service::ServiceConfig::fromProfile(p, su);
    EXPECT_EQ(scfg.workers, 7u);
    EXPECT_EQ(scfg.contextCacheCapacity, 99u);
    // Un-overridden knobs still come from the profile.
    EXPECT_EQ(scfg.shards, p.config.signShards);
    EXPECT_EQ(scfg.verifyCoalesce, p.config.verifyCoalesce);

    BatchKnobOverrides bu;
    bu.laneGroup = 1;
    const auto bcfg = batch::BatchSignerConfig::fromProfile(p, bu);
    EXPECT_EQ(bcfg.laneGroup, 1u);
    EXPECT_EQ(bcfg.workers, p.config.signWorkers);
}

TEST(ProfileTest, ActiveProfileHashIsProcessWide)
{
    tune::setActiveProfileHash("");
    EXPECT_EQ(tune::activeProfileHash(), "");
    tune::setActiveProfileHash("abc123");
    EXPECT_EQ(tune::activeProfileHash(), "abc123");
    tune::setActiveProfileHash("");
}
