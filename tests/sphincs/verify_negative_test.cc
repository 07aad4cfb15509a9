/**
 * @file
 * Negative verification coverage: for every Table I parameter set,
 * flip a bit in every n-byte block of a golden signature — the
 * randomizer, each FORS secret value and auth-path node, every WOTS+
 * chain of every hypertree layer, and every hypertree auth-path node
 * — and assert that the batched lane-parallel verifier rejects, with
 * the same verdict as the spec oracle. Truncation, extension and a
 * wrong key are held to the oracle too. Valid lanes interleaved into
 * every batched group prove corruption cannot leak across lanes. A
 * context of another parameter shape with the same n is refused.
 */

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "oracle_ref.hh"
#include "sphincs/sphincs.hh"

using namespace herosign;
using namespace herosign::sphincs;

namespace
{

/** Human-readable region of the n-byte block at @p block_idx. */
std::string
regionOf(const Params &p, size_t block_idx)
{
    if (block_idx == 0)
        return "randomizer R";
    size_t b = block_idx - 1;

    const size_t fors_tree_blocks = p.forsHeight + 1;
    if (b < static_cast<size_t>(p.forsTrees) * fors_tree_blocks) {
        const size_t tree = b / fors_tree_blocks;
        const size_t off = b % fors_tree_blocks;
        return "FORS tree " + std::to_string(tree) +
               (off == 0 ? " sk" : " auth " + std::to_string(off - 1));
    }
    b -= static_cast<size_t>(p.forsTrees) * fors_tree_blocks;

    const size_t layer_blocks = p.wotsLen() + p.treeHeight();
    const size_t layer = b / layer_blocks;
    const size_t off = b % layer_blocks;
    if (off < p.wotsLen())
        return "layer " + std::to_string(layer) + " WOTS chain " +
               std::to_string(off);
    return "layer " + std::to_string(layer) + " auth " +
           std::to_string(off - p.wotsLen());
}

class VerifyNegative : public ::testing::TestWithParam<const Params *>
{
};

} // namespace

TEST_P(VerifyNegative, EveryCorruptedRegionRejectsLikeTheOracle)
{
    const Params &p = *GetParam();
    SphincsPlus scheme(p);
    ByteVec seed(3 * p.n);
    std::iota(seed.begin(), seed.end(), static_cast<uint8_t>(0));
    auto kp = scheme.keygenFromSeed(seed);

    const std::string txt = "HERO-Sign golden vector";
    const ByteVec msg(txt.begin(), txt.end());
    const ByteVec good = scheme.sign(msg, kp.sk);
    ASSERT_EQ(good.size(), p.sigBytes());
    ASSERT_TRUE(scheme.verify(msg, good, kp.pk));

    const size_t blocks = p.sigBytes() / p.n;
    ASSERT_EQ(blocks,
              1 + static_cast<size_t>(p.forsTrees) * (p.forsHeight + 1) +
                  static_cast<size_t>(p.layers) *
                      (p.wotsLen() + p.treeHeight()));

    Context ctx(p, kp.pk.pkSeed, {});
    const oracle::SpxOracle spx(p, kp.pk.pkSeed);
    ByteVec flipped = good;
    std::vector<ByteVec> group_store;
    std::vector<size_t> group_blocks;
    std::vector<bool> group_want;
    group_store.reserve(7);

    auto flush_group = [&] {
        if (group_store.empty())
            return;
        // One valid lane rides in every batched group: corruption in
        // sibling lanes must not leak into it (or vice versa).
        std::vector<ByteSpan> msgs(group_store.size() + 1, ByteSpan(msg));
        std::vector<ByteSpan> sigs(group_store.size() + 1);
        for (size_t i = 0; i < group_store.size(); ++i)
            sigs[i] = ByteSpan(group_store[i]);
        sigs.back() = ByteSpan(good);
        std::unique_ptr<bool[]> ok(new bool[sigs.size()]);
        scheme.verifyBatch(ctx, msgs.data(), sigs.data(), kp.pk,
                           ok.get(), sigs.size());
        for (size_t i = 0; i < group_store.size(); ++i) {
            EXPECT_FALSE(ok[i])
                << p.name << ": batched verify accepted corrupted "
                << regionOf(p, group_blocks[i]);
            EXPECT_EQ(ok[i], group_want[i])
                << p.name << ": verdict differs from the oracle on "
                << regionOf(p, group_blocks[i]);
        }
        EXPECT_TRUE(ok[group_store.size()])
            << p.name << ": valid lane rejected in corrupted company";
        group_store.clear();
        group_blocks.clear();
        group_want.clear();
    };

    for (size_t b = 0; b < blocks; ++b) {
        const size_t byte = b * p.n;
        flipped[byte] ^= 0x01;
        group_want.push_back(spx.verify(msg, flipped, kp.pk.pkRoot));
        group_store.push_back(flipped);
        group_blocks.push_back(b);
        if (group_store.size() == 7)
            flush_group();
        flipped[byte] ^= 0x01; // restore
    }
    flush_group();

    // Truncation, extension and a wrong key, in one group beside a
    // valid lane: every verdict is the oracle's.
    const auto other = scheme.keygenFromSeed(ByteVec(3 * p.n, 0x5c));
    const ByteVec shorter(good.begin(), good.end() - 1);
    ByteVec longer = good;
    longer.push_back(0);
    const ByteVec foreign = scheme.sign(msg, other.sk);
    const ByteVec *cases[4] = {&shorter, &longer, &foreign, &good};
    ByteSpan msgs4[4], sigs4[4];
    bool ok4[4] = {true, true, true, false};
    for (unsigned i = 0; i < 4; ++i) {
        msgs4[i] = ByteSpan(msg);
        sigs4[i] = ByteSpan(*cases[i]);
    }
    scheme.verifyBatch(ctx, msgs4, sigs4, kp.pk, ok4, 4);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(ok4[i], oracle::oracleVerify(kp.pk, msg, *cases[i]))
            << p.name << " case " << i;
    EXPECT_FALSE(ok4[0] || ok4[1] || ok4[2]);
    EXPECT_TRUE(ok4[3]);

    // A valid signature under the other key's public key.
    EXPECT_FALSE(scheme.verify(msg, good, other.pk));
    EXPECT_FALSE(oracle::oracleVerify(other.pk, msg, good));
}

// A context must match the scheme's whole parameter shape, not only
// n. This custom set shares n = 32 with 256f but signs in 7,136 bytes;
// walked with 256f's FORS and hypertree shape, its signature would be
// read far past its end (up to byte 11,232).
TEST(VerifyContext, RejectsOtherShapeWithTheSameN)
{
    const Params p{"custom-n32", 32, 10, 2, 5, 13, 16};
    SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(ByteVec(3 * p.n, 0x42));
    const std::string txt = "shape check";
    const ByteVec msg(txt.begin(), txt.end());
    const ByteVec sig = scheme.sign(msg, kp.sk);
    ASSERT_EQ(sig.size(), 7136u);

    const Context wrong(Params::sphincs256f(), kp.pk.pkSeed, {});
    EXPECT_THROW(scheme.verify(wrong, msg, sig, kp.pk),
                 std::invalid_argument);
    ByteSpan m(msg), s(sig);
    bool ok = true;
    EXPECT_THROW(scheme.verifyBatch(wrong, &m, &s, kp.pk, &ok, 1),
                 std::invalid_argument);

    // The name is not part of the shape.
    Params alias = p;
    alias.name = "custom-n32-alias";
    const Context same(alias, kp.pk.pkSeed, {});
    EXPECT_TRUE(scheme.verify(same, msg, sig, kp.pk));
    EXPECT_TRUE(oracle::oracleVerify(kp.pk, msg, sig));
}

INSTANTIATE_TEST_SUITE_P(TableI, VerifyNegative,
                         ::testing::Values(&Params::sphincs128f(),
                                           &Params::sphincs192f(),
                                           &Params::sphincs256f()),
                         [](const auto &info) {
                             return info.param->name.substr(
                                 info.param->name.find('-') + 1);
                         });
