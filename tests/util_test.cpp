// Tests for src/util: rng determinism and uniformity sanity, bit packing,
// table formatting, synchronization helpers, the shared spinlock.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "registers/faulty.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/sync.hpp"
#include "util/table.hpp"

namespace bloom87 {
namespace {

TEST(Rng, DeterministicFromSeed) {
    rng a(42), b(42);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) same += (a() == b());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
    rng g(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(g.below(bound), bound);
    }
    EXPECT_EQ(g.below(0), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
    rng g(123);
    std::vector<int> buckets(10, 0);
    constexpr int n = 100000;
    for (int i = 0; i < n; ++i) ++buckets[g.below(10)];
    for (int count : buckets) {
        EXPECT_GT(count, n / 10 - n / 50);
        EXPECT_LT(count, n / 10 + n / 50);
    }
}

TEST(Rng, RangeIsInclusive) {
    rng g(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(g.range(-2, 2));
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_TRUE(seen.contains(-2));
    EXPECT_TRUE(seen.contains(2));
}

TEST(Rng, ShufflePreservesElements) {
    rng g(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    g.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
    rng g(5);
    rng child = g.split();
    EXPECT_NE(g(), child());
}

TEST(Bits, PackRoundTripsValueAndTag) {
    for (std::int32_t v : {0, 1, -1, 42, -42, 1 << 30, -(1 << 30)}) {
        for (bool tag : {false, true}) {
            const std::uint64_t w = pack_tagged(v, tag);
            EXPECT_EQ(unpack_value<std::int32_t>(w), v);
            EXPECT_EQ(unpack_tag(w), tag);
        }
    }
}

TEST(Bits, PackSmallTypes) {
    const std::uint64_t w = pack_tagged<std::uint8_t>(0xAB, true);
    EXPECT_EQ(unpack_value<std::uint8_t>(w), 0xAB);
    EXPECT_TRUE(unpack_tag(w));
}

TEST(Bits, TagXorMatchesMod2Sum) {
    EXPECT_FALSE(tag_xor(false, false));
    EXPECT_TRUE(tag_xor(false, true));
    EXPECT_TRUE(tag_xor(true, false));
    EXPECT_FALSE(tag_xor(true, true));
}

TEST(Table, AlignsColumns) {
    table t({"a", "long_header"});
    t.row({"xx", "y"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("| a  | long_header |"), std::string::npos);
    EXPECT_NE(s.find("| xx | y           |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
    table t({"a", "b"});
    t.row({"only"});
    EXPECT_NE(t.to_string().find("| only |   |"), std::string::npos);
}

TEST(Table, WithCommas) {
    EXPECT_EQ(with_commas(0), "0");
    EXPECT_EQ(with_commas(999), "999");
    EXPECT_EQ(with_commas(1000), "1,000");
    EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(Table, Fixed) {
    EXPECT_EQ(fixed(3.14159, 2), "3.14");
    EXPECT_EQ(fixed(2.0, 1), "2.0");
}

TEST(Sync, SpinBarrierSynchronizesRounds) {
    constexpr int threads = 4, rounds = 50;
    spin_barrier barrier(threads);
    std::atomic<int> counter{0};
    std::vector<std::thread> pool;
    std::atomic<bool> failed{false};
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (int r = 0; r < rounds; ++r) {
                counter.fetch_add(1);
                barrier.arrive_and_wait();
                // Between barriers, the counter must be a multiple of
                // `threads` * (r+1): all increments of this round landed.
                if (counter.load() < threads * (r + 1)) failed = true;
                barrier.arrive_and_wait();
            }
        });
    }
    for (auto& th : pool) th.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(counter.load(), threads * rounds);
}

TEST(Sync, StartGateReleasesWaiters) {
    start_gate gate;
    std::atomic<int> released{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < 3; ++t) {
        pool.emplace_back([&] {
            gate.wait();
            released.fetch_add(1);
        });
    }
    EXPECT_EQ(released.load(), 0);
    gate.open();
    for (auto& th : pool) th.join();
    EXPECT_EQ(released.load(), 3);
}

// The lock fills exactly one cache line, so nothing it is embedded beside
// can share the line its waiters poll.
static_assert(alignof(spinlock) == cacheline_size);
static_assert(sizeof(spinlock) == cacheline_size);

TEST(Spinlock, SerializesPlainIncrements) {
    // A plain (non-atomic) counter: any lost update under the lock would
    // show as a short total, and TSan flags the race if the lock's
    // acquire/release pair were broken.
    constexpr int threads = 4, per_thread = 20000;
    spinlock lock;
    std::uint64_t counter = 0;
    start_gate gate;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            gate.wait();
            for (int i = 0; i < per_thread; ++i) {
                spinlock::scoped guard(lock);
                ++counter;
            }
        });
    }
    gate.open();
    for (auto& th : pool) th.join();
    EXPECT_EQ(counter, std::uint64_t{threads} * per_thread);
}

TEST(Spinlock, FaultPlanCrashFlagsSitOffTheLockLine) {
    // The driver polls the crash flags lock-free on every step, so they
    // must not share the plan lock's line. Locate both from the object's
    // bytes: taking the lock flips exactly one byte (the lock word), and
    // crashing every port flips one byte per crash flag.
    using bytes = std::array<unsigned char, sizeof(fault_plan)>;
    alignas(fault_plan) bytes storage{};
    const auto snapshot = [&] {
        bytes b{};
        std::memcpy(b.data(), storage.data(), b.size());
        return b;
    };
    const auto changed = [](const bytes& a, const bytes& b) {
        std::vector<std::size_t> at;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i]) at.push_back(i);
        }
        return at;
    };
    auto* plan = new (storage.data()) fault_plan(fault_spec{});
    const bytes idle = snapshot();
    plan->lock();
    const bytes held = snapshot();
    plan->unlock();
    const std::vector<std::size_t> lock_bytes = changed(idle, held);
    ASSERT_EQ(lock_bytes.size(), 1u);
    const std::size_t lock_line = lock_bytes[0] / cacheline_size;

    for (processor_id p = 0; p < 64; ++p) plan->crash_port(p);
    const std::vector<std::size_t> flag_bytes = changed(idle, snapshot());
    EXPECT_EQ(flag_bytes.size(), 64u);
    for (const std::size_t at : flag_bytes) {
        EXPECT_NE(at / cacheline_size, lock_line) << "crash flag byte " << at;
    }
    for (processor_id p = 0; p < 64; ++p) EXPECT_TRUE(plan->crashed(p));
    plan->~fault_plan();
}

}  // namespace
}  // namespace bloom87
