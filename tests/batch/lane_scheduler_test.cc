/**
 * @file
 * Cross-signature lane batching correctness: SignTask groups must
 * produce the spec oracle's signatures byte for byte on every Table I
 * parameter set, at every lane width (1 / 8 / 16), for group sizes
 * from a lone request to a full group (including ragged ones that
 * don't divide the lane width), and mixed parameter-set groups must
 * reject cleanly.
 */

#include <gtest/gtest.h>

#include "../sphincs/oracle_ref.hh"
#include "batch_test_util.hh"
#include "hash/sha256xN.hh"
#include "sphincs/sign_task.hh"
#include "sphincs/sphincs.hh"
#include "sphincs/thashx.hh"

using namespace herosign;
using namespace herosign::batchtest;
using sphincs::Context;
using sphincs::maxHashLanes;
using sphincs::Params;
using sphincs::SignTask;
using sphincs::SphincsPlus;

namespace
{

/** opt_rand for message i: empty (deterministic) for even i. */
ByteVec
optRandFor(const Params &p, unsigned i)
{
    if (i % 2 == 0)
        return {};
    ByteVec r(p.n);
    for (unsigned j = 0; j < p.n; ++j)
        r[j] = static_cast<uint8_t>(0xA0 + 7 * i + j);
    return r;
}

} // namespace

TEST(LaneSchedulerTest, GroupsMatchOracleOnAllSetsWidthsAndSizes)
{
    for (const Params &p : Params::all()) {
        SphincsPlus scheme(p);
        const auto kp = scheme.keygenFromSeed(fixedSeed(p));
        Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

        // The spec oracle's signatures: the ground truth every pooled
        // configuration must reproduce bit for bit.
        constexpr unsigned maxMsgs = maxHashLanes;
        std::vector<ByteVec> msgs;
        std::vector<ByteVec> rands;
        std::vector<ByteVec> want;
        for (unsigned i = 0; i < maxMsgs; ++i) {
            msgs.push_back(patternMsg(48, static_cast<uint8_t>(i)));
            rands.push_back(optRandFor(p, i));
            want.push_back(oracle::oracleSign(kp.sk, msgs[i], rands[i]));
        }

        for (unsigned width : {1u, 8u, 16u}) {
            ScopedWidth w(width);
            // Ragged sizes on purpose: 3, 5 and 15 divide neither 8
            // nor 16, so partial lane groups and tail chains exercise
            // the fallback kernels. The group * k FORS trees reduce
            // level by level, so levels with fewer combines than the
            // width run partial batches: at 128f, group 2 gives 66
            // trees, a 64-tree chunk and a 2-tree one whose top three
            // levels run 8, 4 and 2 lanes; 15 is a typical
            // batch-burst group.
            for (unsigned group : {1u, 2u, 3u, 5u, 15u, 16u}) {
                std::vector<ByteSpan> msg_spans, rand_spans;
                for (unsigned i = 0; i < group; ++i) {
                    msg_spans.emplace_back(msgs[i]);
                    rand_spans.emplace_back(rands[i]);
                }
                std::vector<ByteVec> got(group);
                SignTask::signGroup(ctx, kp.sk, msg_spans.data(),
                                    rand_spans.data(), got.data(), group);
                for (unsigned i = 0; i < group; ++i)
                    EXPECT_EQ(got[i], want[i])
                        << p.name << " width=" << width
                        << " group=" << group << " msg=" << i;
            }
        }
    }
}

TEST(LaneSchedulerTest, MixedParameterSetGroupRejects)
{
    const Params &pa = Params::sphincs128f();
    const Params &pb = Params::sphincs192f();
    SphincsPlus sa(pa), sb(pb);
    const auto ka = sa.keygenFromSeed(fixedSeed(pa));
    const auto kb = sb.keygenFromSeed(fixedSeed(pb));
    Context ca(pa, ka.sk.pkSeed, ka.sk.skSeed);
    Context cb(pb, kb.sk.pkSeed, kb.sk.skSeed);

    const ByteVec msg = patternMsg(32);
    SignTask ta(ca, ka.sk, msg);
    SignTask tb(cb, kb.sk, msg);
    SignTask *mixed[2] = {&ta, &tb};
    EXPECT_THROW(SignTask::runGroup(mixed, 2), std::invalid_argument);

    // Same parameter set but a different Context object is also a
    // mixed shard: the group invariant is one warm context.
    const auto ka2 = sa.keygenFromSeed(fixedSeed(pa, 99));
    Context ca2(pa, ka2.sk.pkSeed, ka2.sk.skSeed);
    SignTask ta2(ca2, ka2.sk, msg);
    SignTask *twoKeys[2] = {&ta, &ta2};
    EXPECT_THROW(SignTask::runGroup(twoKeys, 2),
                 std::invalid_argument);
}

// A task lays its signature out by the context's parameters and
// hashes the message under the key's pk_root, so the two must share
// the whole shape, not only n and the seeds. The name does not count.
TEST(LaneSchedulerTest, TaskRejectsKeyOfOtherShapeWithTheSameN)
{
    const Params p = miniParams();
    Params other = p;
    other.name = "mini-two-layers";
    other.layers = 2;
    const auto kp = SphincsPlus(other).keygenFromSeed(fixedSeed(other));
    const Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);
    const ByteVec msg = patternMsg(32);
    EXPECT_THROW(SignTask(ctx, kp.sk, msg), std::invalid_argument);

    Params alias = other;
    alias.name = "mini-two-layers-alias";
    const Context same(alias, kp.sk.pkSeed, kp.sk.skSeed);
    SignTask task(same, kp.sk, msg);
    SignTask *one[1] = {&task};
    SignTask::runGroup(one, 1);
    EXPECT_EQ(task.takeSignature(), oracle::oracleSign(kp.sk, msg));
}

TEST(LaneSchedulerTest, OversizedGroupRejects)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(fixedSeed(p));
    Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

    const unsigned count = maxHashLanes + 1;
    std::vector<ByteVec> msgs = patternBatch(count);
    std::vector<ByteSpan> spans(msgs.begin(), msgs.end());
    std::vector<ByteVec> sigs(count);
    EXPECT_THROW(SignTask::signGroup(ctx, kp.sk, spans.data(), nullptr,
                                     sigs.data(), count),
                 std::invalid_argument);
}

TEST(LaneSchedulerTest, EmptyGroupDoesNothing)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(fixedSeed(p));
    Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

    // Neither input array is read and no output is written.
    ByteVec sig = {0x5a};
    SignTask::signGroup(ctx, kp.sk, nullptr, nullptr, &sig, 0);
    EXPECT_EQ(sig, ByteVec{0x5a});
}

TEST(LaneSchedulerTest, TaskRejectsEarlyTakeAndBadOptRand)
{
    const Params p = miniParams();
    SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(fixedSeed(p));
    Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

    const ByteVec msg = patternMsg(32);
    SignTask task(ctx, kp.sk, msg);
    EXPECT_THROW(task.takeSignature(), std::logic_error);

    EXPECT_THROW(SignTask(ctx, kp.sk, msg, patternMsg(p.n + 1)),
                 std::invalid_argument);
}

TEST(LaneSchedulerTest, EveryGroupSizeOnMiniParams)
{
    // Every group size up to a full maxHashLanes on the cheap set, at
    // every width, checked against the spec oracle. Its 8 FORS trees
    // of 16 leaves per signature give a group of G a top FORS level
    // of 8G combines, a partial batch at width 16 when G is odd.
    const Params p = miniParams();
    SphincsPlus scheme(p);
    const auto kp = scheme.keygenFromSeed(fixedSeed(p));
    Context ctx(p, kp.sk.pkSeed, kp.sk.skSeed);

    const unsigned maxCount = maxHashLanes;
    std::vector<ByteVec> msgs = patternBatch(maxCount);
    std::vector<ByteSpan> spans(msgs.begin(), msgs.end());
    std::vector<ByteVec> want;
    for (const ByteVec &m : msgs)
        want.push_back(oracle::oracleSign(kp.sk, m));
    for (unsigned width : {1u, 8u, 16u}) {
        ScopedWidth w(width);
        for (unsigned count = 1; count <= maxCount; ++count) {
            std::vector<ByteVec> sigs(count);
            SignTask::signGroup(ctx, kp.sk, spans.data(), nullptr,
                                sigs.data(), count);
            for (unsigned i = 0; i < count; ++i)
                EXPECT_EQ(sigs[i], want[i]) << "width=" << width
                                            << " group=" << count
                                            << " msg=" << i;
        }
    }
}
