/**
 * @file
 * Direct kernel tests: each simulated kernel's functional output is
 * compared byte-for-byte against the spec oracle (tests/oracle),
 * across geometries (baseline / MMTP / fused / relax, naive / padded).
 */

#include <gtest/gtest.h>

#include "common/hex.hh"
#include "common/random.hh"
#include "core/kernels.hh"
#include "oracle/spx_oracle.hh"

using namespace herosign;
using namespace herosign::core;
using sphincs::Address;
using sphincs::AddrType;
using sphincs::Context;
using sphincs::Params;

namespace
{

const gpu::DeviceProps &
dev()
{
    static gpu::DeviceProps d = gpu::DeviceProps::rtx4090();
    return d;
}

const gpu::CostParams &
cp()
{
    static gpu::CostParams p;
    return p;
}

/** Pack FORS indices into the mhash bit layout (a bits each, MSB). */
ByteVec
packIndices(const Params &p, const std::vector<uint32_t> &indices)
{
    ByteVec out(p.forsMsgBytes(), 0);
    size_t bit = 0;
    for (unsigned i = 0; i < p.forsTrees; ++i) {
        for (unsigned b = 0; b < p.forsHeight; ++b, ++bit) {
            const uint32_t v =
                (indices[i] >> (p.forsHeight - 1 - b)) & 1u;
            out[bit >> 3] |= v << (7 - (bit & 7));
        }
    }
    return out;
}

struct Fixture
{
    Params params;
    std::unique_ptr<Context> ctx;
    MessageJob job;

    explicit Fixture(const Params &p, uint64_t seed = 42) : params(p)
    {
        Rng rng(seed);
        ByteVec pk_seed = rng.bytes(p.n);
        ByteVec sk_seed = rng.bytes(p.n);
        ctx = std::make_unique<Context>(p, pk_seed, sk_seed);
        job.ctx = ctx.get();
        job.allocate(p);
        job.idxTree = rng.next() & ((p.treeBits() >= 64)
                                        ? ~0ULL
                                        : ((1ULL << p.treeBits()) - 1));
        job.idxLeaf = static_cast<uint32_t>(
            rng.below(p.treeLeaves()));
        job.forsIndices.resize(p.forsTrees);
        for (auto &v : job.forsIndices)
            v = static_cast<uint32_t>(rng.below(p.forsLeaves()));
        uint64_t tree = job.idxTree;
        uint32_t leaf = job.idxLeaf;
        for (unsigned layer = 0; layer < p.layers; ++layer) {
            job.layerTree[layer] = tree;
            job.layerLeaf[layer] = leaf;
            leaf = static_cast<uint32_t>(
                tree & ((1ULL << p.treeHeight()) - 1));
            tree >>= p.treeHeight();
        }
        Rng msg_rng(seed + 1);
        msg_rng.fill(job.wotsMessages);
    }

    Address
    forsAddress() const
    {
        Address a;
        a.setLayer(0);
        a.setTree(job.idxTree);
        a.setType(AddrType::ForsTree);
        a.setKeypair(job.idxLeaf);
        return a;
    }

    oracle::SpxOracle
    spec() const
    {
        return oracle::SpxOracle(params, ctx->pkSeed(), ctx->skSeed());
    }

    gpu::ExecResult
    runFors(const ForsGeometry &geo, bool hybrid = true)
    {
        ForsSignKernel body(job, geo, MemPolicy{hybrid});
        gpu::LaunchSpec spec;
        spec.blockDim = body.blockThreads();
        spec.sharedBytes = body.sharedBytes();
        spec.gridDim = 1;
        // A fresh kernel instance owned by the spec.
        spec.body = std::make_shared<ForsSignKernel>(job, geo,
                                                     MemPolicy{hybrid});
        return gpu::executeLaunch(dev(), cp(), spec);
    }
};

/** The oracle's FORS signature and public key for the job inputs. */
void
referenceFors(const Fixture &f, ByteVec &sig, ByteVec &pk)
{
    const ByteVec mhash = packIndices(f.params, f.job.forsIndices);
    const oracle::SpxOracle spx = f.spec();
    sig = spx.forsSign(mhash, f.forsAddress());
    pk = spx.forsPkFromSig(sig, mhash, f.forsAddress());
}

} // namespace

using ForsGeomParam = std::tuple<const Params *, int>;

class ForsKernelGeometry : public ::testing::TestWithParam<ForsGeomParam>
{
};

TEST_P(ForsKernelGeometry, MatchesReference)
{
    const auto [pp, mode] = GetParam();
    const Params &p = *pp;
    Fixture f(p, 1000 + mode);

    ForsGeometry geo;
    const uint32_t t = p.forsLeaves();
    switch (mode) {
      case 0: // baseline: one tree at a time, naive layout
        geo = ForsGeometry{t, 1, 1, false, false};
        break;
      case 1: // MMTP: several whole trees, padded
        geo.treesPerSet = std::max(1u, std::min(p.forsTrees, 1024 / t));
        geo.fusedSets = 1;
        geo.threadsPerSet = geo.treesPerSet * t;
        geo.padded = true;
        break;
      case 2: // fused
        geo.treesPerSet = std::max(1u, std::min(p.forsTrees, 1024 / t));
        geo.fusedSets = 2;
        geo.threadsPerSet = geo.treesPerSet * t;
        geo.padded = true;
        break;
      case 3: // relax
        geo.relax = true;
        geo.treesPerSet = std::max(1u, std::min(p.forsTrees,
                                                1024 / (t / 2)));
        geo.fusedSets = 1;
        geo.threadsPerSet = geo.treesPerSet * (t / 2);
        geo.padded = true;
        break;
    }
    if (mode == 0) {
        geo.treesPerSet = 1;
        geo.fusedSets = 1;
        geo.threadsPerSet = t;
        geo.padded = false;
    }

    f.runFors(geo);

    ByteVec ref_sig, ref_pk;
    referenceFors(f, ref_sig, ref_pk);
    EXPECT_EQ(hexEncode(f.job.forsSig), hexEncode(ref_sig))
        << p.name << " mode " << mode;
    EXPECT_EQ(hexEncode(f.job.forsPk), hexEncode(ref_pk));
}

namespace
{

std::string
forsGeomName(const ::testing::TestParamInfo<ForsGeomParam> &info)
{
    static const char *modes[] = {"baseline", "mmtp", "fused", "relax"};
    std::string name = std::get<0>(info.param)->name;
    return name.substr(name.find('-') + 1) + "_" +
           modes[std::get<1>(info.param)];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(AllSetsAndModes, ForsKernelGeometry,
    ::testing::Combine(
        ::testing::Values(&Params::sphincs128f(),
                          &Params::sphincs192f(),
                          &Params::sphincs256f()),
        ::testing::Values(0, 1, 2, 3)),
    forsGeomName);

TEST(ForsKernel, PaddedLayoutHasNoConflictsNaiveDoes)
{
    const Params &p = Params::sphincs128f();
    Fixture fp(p, 7), fn(p, 7);

    ForsGeometry padded{704, 11, 3, false, true};
    ForsGeometry naive{704, 11, 3, false, false};

    auto rp = fp.runFors(padded);
    auto rn = fn.runFors(naive);

    EXPECT_EQ(rp.profile.counters.sharedLoadConflicts, 0u);
    EXPECT_EQ(rp.profile.counters.sharedStoreConflicts, 0u);
    EXPECT_GT(rn.profile.counters.sharedLoadConflicts, 0u);
    // Both still produce identical signatures.
    EXPECT_EQ(hexEncode(fp.job.forsSig), hexEncode(fn.job.forsSig));
}

TEST(ForsKernel, RelaxHalvesSharedMemory)
{
    const Params &p = Params::sphincs256f();
    Fixture f(p, 9);
    ForsGeometry plain{512, 1, 1, false, true};
    ForsGeometry relax{256, 1, 1, true, true};
    ForsSignKernel kp(f.job, plain, MemPolicy{});
    ForsSignKernel kr(f.job, relax, MemPolicy{});
    // Relax keeps only levels >= 1: about half the footprint.
    EXPECT_LT(kr.sharedBytes(), kp.sharedBytes() * 0.6);
}

TEST(ForsKernel, HashCountMatchesClosedForm)
{
    // Leaf gen: t x (PRF + F); internal: t - 1 H per tree; final pk.
    const Params &p = Params::sphincs128f();
    Fixture f(p, 11);
    ForsGeometry geo{704, 11, 3, false, true};
    auto r = f.runFors(geo);
    const uint64_t t = p.forsLeaves();
    const uint64_t per_tree = 2 * t + (t - 1);
    const uint64_t expected_min = p.forsTrees * per_tree;
    EXPECT_GE(r.totals.hashes, expected_min);
    // The only extra hashing is the k-root compression.
    EXPECT_LE(r.totals.hashes, expected_min + 64);
}

TEST(ForsKernel, RejectsInconsistentGeometry)
{
    const Params &p = Params::sphincs128f();
    Fixture f(p, 13);
    ForsGeometry bad{703, 11, 3, false, true}; // not Ntree * t
    EXPECT_THROW(ForsSignKernel(f.job, bad, MemPolicy{}),
                 std::invalid_argument);
}

class TreeKernelSets : public ::testing::TestWithParam<const Params *>
{
};

TEST_P(TreeKernelSets, MatchesMerkleSignReference)
{
    const Params &p = *GetParam();
    Fixture f(p, 21);

    TreeSignKernel body(f.job, true, MemPolicy{});
    gpu::LaunchSpec spec;
    spec.blockDim = body.blockThreads();
    spec.sharedBytes = body.sharedBytes();
    spec.gridDim = 1;
    spec.body = std::make_shared<TreeSignKernel>(f.job, true, MemPolicy{});
    gpu::executeLaunch(dev(), cp(), spec);

    // Reference: per layer, the oracle's treehash root and the auth
    // path of xmss_sign.
    const oracle::SpxOracle spx = f.spec();
    for (unsigned layer = 0; layer < p.layers; ++layer) {
        Address tree_adrs;
        tree_adrs.setLayer(layer);
        tree_adrs.setTree(f.job.layerTree[layer]);
        const ByteVec root = spx.treehash(0, p.treeHeight(), tree_adrs);
        ByteVec auth;
        const uint32_t idx = f.job.layerLeaf[layer];
        for (unsigned j = 0; j < p.treeHeight(); ++j) {
            const ByteVec node =
                spx.treehash(((idx >> j) ^ 1u) << j, j, tree_adrs);
            auth.insert(auth.end(), node.begin(), node.end());
        }

        EXPECT_EQ(hexEncode(ByteSpan(
                      f.job.roots.data() + layer * p.n, p.n)),
                  hexEncode(root))
            << p.name << " layer " << layer;
        EXPECT_EQ(hexEncode(ByteSpan(f.job.authPaths.data() +
                                         layer * auth.size(),
                                     auth.size())),
                  hexEncode(auth))
            << p.name << " layer " << layer;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSets, TreeKernelSets,
    ::testing::Values(&Params::sphincs128f(), &Params::sphincs192f(),
                      &Params::sphincs256f()),
    [](const ::testing::TestParamInfo<const Params *> &info) {
        std::string name = info.param->name;
        return name.substr(name.find('-') + 1);
    });

TEST(TreeKernel, SharedMemoryMatchesPaperFootprints)
{
    // §III-B1: roughly 1 KB / 4.125 KB / 8.5 KB for the d subtrees.
    auto footprint = [](const Params &p) {
        Fixture f(p, 31);
        TreeSignKernel body(f.job, true, MemPolicy{});
        return body.sharedBytes();
    };
    EXPECT_NEAR(footprint(Params::sphincs128f()), 176 * 16, 176 * 16);
    EXPECT_LE(footprint(Params::sphincs192f()), 6336u); // 4.125 KB + skew pads
    EXPECT_LE(footprint(Params::sphincs256f()), 10 * 1024);
}

class WotsKernelSets : public ::testing::TestWithParam<const Params *>
{
};

TEST_P(WotsKernelSets, MatchesWotsSignReference)
{
    const Params &p = *GetParam();
    Fixture f(p, 41);

    WotsSignKernel body(f.job, false, true, MemPolicy{});
    gpu::LaunchSpec spec;
    spec.blockDim = body.blockThreads();
    spec.gridDim = 1;
    spec.body = std::make_shared<WotsSignKernel>(
        f.job, false, true, MemPolicy{});
    gpu::executeLaunch(dev(), cp(), spec);

    for (unsigned layer = 0; layer < p.layers; ++layer) {
        Address adrs;
        adrs.setLayer(layer);
        adrs.setTree(f.job.layerTree[layer]);
        adrs.setType(AddrType::WotsHash);
        adrs.setKeypair(f.job.layerLeaf[layer]);
        const ByteVec ref = f.spec().wotsSign(
            ByteSpan(f.job.wotsMessages.data() + layer * p.n, p.n), adrs);
        EXPECT_EQ(hexEncode(ByteSpan(f.job.wotsSigs.data() +
                                         layer * p.wotsSigBytes(),
                                     p.wotsSigBytes())),
                  hexEncode(ref))
            << p.name << " layer " << layer;
    }
}

INSTANTIATE_TEST_SUITE_P(AllSets, WotsKernelSets,
    ::testing::Values(&Params::sphincs128f(), &Params::sphincs192f(),
                      &Params::sphincs256f()),
    [](const ::testing::TestParamInfo<const Params *> &info) {
        std::string name = info.param->name;
        return name.substr(name.find('-') + 1);
    });

TEST(WotsKernel, FullChainModeChargesMoreButSignsSame)
{
    const Params &p = Params::sphincs128f();
    Fixture fa(p, 51), fb(p, 51);

    auto run = [&](Fixture &f, bool full) {
        gpu::LaunchSpec spec;
        auto body = std::make_shared<WotsSignKernel>(
            f.job, full, !full, MemPolicy{});
        spec.blockDim = body->blockThreads();
        spec.gridDim = 1;
        spec.body = body;
        return gpu::executeLaunch(dev(), cp(), spec);
    };
    auto partial = run(fa, false);
    auto full = run(fb, true);

    EXPECT_EQ(hexEncode(fa.job.wotsSigs), hexEncode(fb.job.wotsSigs));
    // TCAS-style full chains hash substantially more (§IV-D).
    EXPECT_GT(full.totals.hashes, partial.totals.hashes * 3 / 2);
}

TEST(WotsKernel, BlockThreadsCapAt1024)
{
    const Params &p = Params::sphincs256f(); // 17 x 67 = 1139 chains
    Fixture f(p, 61);
    WotsSignKernel body(f.job, false, true, MemPolicy{});
    EXPECT_LE(body.blockThreads(), 1024u);
    EXPECT_EQ(body.blockThreads() % 32, 0u);
}
