// bloom87: concurrent append-only event log.
//
// The log is the executable stand-in for the paper's sequence gamma: every
// recorded event's slot index IS its position in gamma. Appends reserve a
// slot with one fetch_add and then publish the payload with a release store,
// so concurrent recording perturbs the protocol under test as little as
// possible while still yielding a total order.
//
// Note on fidelity: the *order* in which real-register accesses draw their
// slots must be a legal serialization of those accesses. The recording
// substrate (src/registers/recording.hpp) guarantees this by holding a
// per-register spinlock across {apply access, draw slot}, which makes each
// real access atomic and time-stamped at a single instant -- i.e. the
// recording substrate is, by construction, an atomic register whose
// *-actions we know exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "histories/events.hpp"

namespace bloom87 {

/// Fixed-capacity MPMC append-only log of gamma events.
class event_log {
public:
    /// Capacity must cover the whole run; appending past it is a programming
    /// error (assert). Sized generously by callers.
    explicit event_log(std::size_t capacity)
        : slots_(capacity), ready_(capacity) {
        for (auto& f : ready_) f.value.store(false, std::memory_order_relaxed);
    }

    event_log(const event_log&) = delete;
    event_log& operator=(const event_log&) = delete;

    /// Appends one event; returns its gamma position. Thread-safe.
    /// Appending past capacity drops the event and records `overflowed` --
    /// a supported condition callers check after the run (the monitor
    /// reports it as a verdict; harnesses assert on it).
    event_pos append(const event& e) noexcept {
        const auto pos = next_.fetch_add(1, std::memory_order_relaxed);
        if (pos >= slots_.size()) {
            overflowed_.store(true, std::memory_order_release);
            return pos;
        }
        slots_[pos] = e;
        ready_[pos].value.store(true, std::memory_order_release);
        return pos;
    }

    /// True if any append was dropped for lack of capacity.
    [[nodiscard]] bool overflowed() const noexcept {
        return overflowed_.load(std::memory_order_acquire);
    }

    /// Number of events appended so far (some may still be publishing).
    [[nodiscard]] std::size_t size() const noexcept {
        return std::min(next_.load(std::memory_order_acquire), slots_.size());
    }

    [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

    /// Copies out the prefix of fully published events. Intended for use
    /// after worker threads are joined, when everything is published.
    [[nodiscard]] std::vector<event> snapshot() const {
        const std::size_t n = size();
        std::vector<event> out;
        out.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Wait (briefly) for any in-flight publish; after join this
            // never spins.
            while (!ready_[i].value.load(std::memory_order_acquire)) {}
            out.push_back(slots_[i]);
        }
        return out;
    }

    /// Copies out one published event by position (`pos` < size()),
    /// spinning briefly if its publish is still in flight. The streaming
    /// checker tails a live log one event at a time with this instead of
    /// re-copying ever-growing prefixes.
    [[nodiscard]] event read_at(event_pos pos) const noexcept {
        while (!ready_[pos].value.load(std::memory_order_acquire)) {}
        return slots_[pos];
    }

    /// Resets the log for reuse between test iterations. Not thread-safe.
    void clear() noexcept {
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i) {
            ready_[i].value.store(false, std::memory_order_relaxed);
        }
        overflowed_.store(false, std::memory_order_relaxed);
        next_.store(0, std::memory_order_release);
    }

private:
    struct flag {
        std::atomic<bool> value{false};
    };

    std::vector<event> slots_;
    mutable std::vector<flag> ready_;
    std::atomic<event_pos> next_{0};
    std::atomic<bool> overflowed_{false};
};

}  // namespace bloom87
