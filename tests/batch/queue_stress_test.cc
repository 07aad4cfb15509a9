/**
 * @file
 * Stress and semantics tests for the sharded MPMC queue under many
 * producer and consumer threads. These are the tests the sanitizer
 * CI jobs lean on to guard the threaded queue against data races and
 * lifetime bugs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "batch/mpmc_queue.hh"

using namespace herosign::batch;

TEST(MpmcQueue, ManyProducersManyConsumers)
{
    constexpr unsigned producers = 4;
    constexpr unsigned consumers = 4;
    constexpr uint64_t per_producer = 5000;

    ShardedMpmcQueue<uint64_t> q(4);
    std::atomic<uint64_t> popped{0};
    std::atomic<uint64_t> sum{0};

    std::vector<std::thread> cs;
    for (unsigned c = 0; c < consumers; ++c) {
        cs.emplace_back([&, c] {
            uint64_t v;
            while (q.pop(v, c)) {
                sum.fetch_add(v, std::memory_order_relaxed);
                popped.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    std::vector<std::thread> ps;
    for (unsigned p = 0; p < producers; ++p) {
        ps.emplace_back([&, p] {
            for (uint64_t i = 0; i < per_producer; ++i)
                q.push(p * per_producer + i + 1);
        });
    }
    for (auto &t : ps)
        t.join();
    q.close();
    for (auto &t : cs)
        t.join();

    const uint64_t total = producers * per_producer;
    EXPECT_EQ(popped.load(), total);
    // Sum of 1..total (values were a permutation of that range).
    EXPECT_EQ(sum.load(), total * (total + 1) / 2);
    EXPECT_EQ(q.sizeApprox(), 0u);
}

TEST(MpmcQueue, SingleConsumerStealsFromSiblingShards)
{
    ShardedMpmcQueue<int> q(4);
    for (int i = 0; i < 16; ++i)
        q.push(i); // round-robin: every shard gets items

    int v;
    int count = 0;
    while (q.tryPop(v, 0))
        ++count;
    EXPECT_EQ(count, 16);
    // Home shard 0 held only a quarter; the rest were steals.
    EXPECT_GE(q.steals(), 8u);
}

TEST(MpmcQueue, CloseWakesBlockedConsumer)
{
    ShardedMpmcQueue<int> q(2);
    std::atomic<bool> returned{false};
    std::thread consumer([&] {
        int v;
        EXPECT_FALSE(q.pop(v, 0));
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(returned.load());
    q.close();
    consumer.join();
    EXPECT_TRUE(returned.load());
}

TEST(MpmcQueue, AcceptedPushWakesParkedConsumerPromptly)
{
    // Regression test for a lost-wakeup window: a consumer that had
    // finished its empty scan but not yet registered as a waiter was
    // invisible to push()'s sibling-waiter scan, so an accepted item
    // could sit for a full 5 ms max backoff before the timed wait
    // expired. pop() now registers the waiter BEFORE a final
    // occupancy re-check; the parkProbe seam injects a push into
    // exactly that historical window and the test asserts the item
    // is consumed without eating a backoff timeout.
    ShardedMpmcQueue<int> q(2);

    // Consume round-robin slot 0 so the probe's push lands on shard 1
    // (the parked consumer's sibling). The probe runs with the home
    // shard's mutex held, so a push routed to the home shard would
    // self-deadlock in the test harness itself.
    q.push(0);
    int v = -1;
    ASSERT_TRUE(q.tryPop(v, 0));

    std::atomic<int> parks{0};
    std::thread producer;
    std::chrono::steady_clock::time_point pushed_at;
    q.parkProbe = [&] {
        // Let the backoff saturate to its 5 ms cap first, so a
        // relapse into the old behaviour costs a full max backoff
        // rather than the initial 200 us and the latency assertion
        // below is unambiguous against scheduler jitter.
        if (parks.fetch_add(1) + 1 != 8)
            return;
        producer = std::thread([&] { q.push(42); });
        while (q.sizeApprox() == 0)
            std::this_thread::yield();
        pushed_at = std::chrono::steady_clock::now();
    };

    int got = -1;
    EXPECT_TRUE(q.pop(got, 0));
    const auto latency = std::chrono::steady_clock::now() - pushed_at;
    producer.join();
    EXPECT_EQ(got, 42);
    EXPECT_GE(parks.load(), 8);
    // The fixed path skips the wait via the occupancy re-check; the
    // lost-wakeup bug slept the full 5 ms cap.
    const double latency_ms =
        std::chrono::duration<double, std::milli>(latency).count();
    EXPECT_LT(latency_ms, 2.5);
}

TEST(MpmcQueue, ItemsPushedBeforeCloseStillDrain)
{
    ShardedMpmcQueue<int> q(3);
    for (int i = 0; i < 9; ++i)
        q.push(i);
    q.close();
    int v;
    int count = 0;
    while (q.pop(v, 1))
        ++count;
    EXPECT_EQ(count, 9);
}

TEST(MpmcQueue, PushAfterCloseThrows)
{
    ShardedMpmcQueue<int> q(2);
    q.close();
    EXPECT_THROW(q.push(1), std::runtime_error);
}

TEST(MpmcQueue, ZeroShardRequestClampsToOne)
{
    ShardedMpmcQueue<int> q(0);
    EXPECT_EQ(q.shards(), 1u);
    q.push(7);
    int v = 0;
    EXPECT_TRUE(q.tryPop(v, 5)); // any home index is valid
    EXPECT_EQ(v, 7);
}
