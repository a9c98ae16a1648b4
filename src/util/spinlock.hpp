// bloom87: the one spinlock of the repository.
//
// A test-and-test-and-set lock that owns a whole cache line. Three places
// serialize short critical sections with it: the net/ composition's bus
// (net_lock), the fault plan behind faulty_register, and the recording
// substrate. All three hold it for bounded, non-blocking work (a waiter
// never waits on a blocked holder); the layout and the spin keep it cheap
// under contention:
//
//  * `alignas(cacheline_size)` and a full line of size: waiters poll a line
//    that holds nothing else, so the holder's writes to neighbouring fields
//    never bounce it, and the waiters' polling never steals the holder's
//    data line;
//  * test-and-test-and-set: a waiter spins on a relaxed load (a shared
//    cached copy, no coherence traffic) and attempts the acquiring exchange
//    only when the lock looks free;
//  * the CPU pause hint between polls, and std::this_thread::yield() once
//    every `yield_every` failed polls, so an oversubscribed run does not
//    burn the time slice of a preempted holder.
//
// Single-threaded (seeded) runs take the lock uncontended, one exchange per
// acquisition, so seeded histories do not depend on the spin policy. Memory
// orders are declared in the lint contracts (analysis/contracts.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

#include "util/sync.hpp"

namespace bloom87 {

/// CPU spin-wait hint: PAUSE on x86, YIELD on aarch64, nothing elsewhere.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

class alignas(cacheline_size) spinlock {
public:
    /// Scoped acquisition (`spinlock::scoped guard(l);`).
    using scoped = std::lock_guard<spinlock>;

    void lock() noexcept {
        while (locked_.exchange(true, std::memory_order_acquire)) {
            std::uint32_t polls = 0;
            while (locked_.load(std::memory_order_relaxed)) {
                cpu_relax();
                if (++polls % yield_every == 0) std::this_thread::yield();
            }
        }
    }

    void unlock() noexcept { locked_.store(false, std::memory_order_release); }

private:
    /// Failed polls between two std::this_thread::yield() calls.
    static constexpr std::uint32_t yield_every = 64;

    std::atomic<bool> locked_{false};
};

}  // namespace bloom87
