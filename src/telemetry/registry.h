// Lock-free metrics registry: monotonic counters, gauges, and log-2
// histograms safe to update from the interpreter hot loop and supervisor
// threads concurrently.
//
// Design rule: the *update* path (Counter::add, Gauge::set,
// Histogram::record) is a single relaxed atomic RMW/store — no mutex, no
// allocation, no branch on registry state. Only registration (get-or-create
// by name) and snapshot iteration take the registry mutex; metric objects
// live in deques so references handed out stay valid for the registry's
// lifetime.
//
// Header-only; depends only on util/types.h. Subsystems below the fleet
// drivers (netfleet, corpus, util/fault) do not touch it: they count in
// their own stats structs, which the fleet driver publishes here as gauges
// at each fleet stamp (fuzzer/lifecycle.h).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/types.h"

namespace bigmap::telemetry {

// Monotonically increasing event count.
class Counter {
 public:
  void add(u64 n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  u64 get() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(u64 v) noexcept { v_.store(v, std::memory_order_relaxed); }
  u64 get() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<u64> v_{0};
};

// Log-2-bucketed value distribution: bucket 0 holds value 0, bucket i
// (i >= 1) holds values in [2^(i-1), 2^i). 64 buckets cover the full u64
// range.
class Histogram {
 public:
  static constexpr usize kBuckets = 64;

  static usize bucket_of(u64 v) noexcept {
    if (v == 0) return 0;
    const usize b = static_cast<usize>(64 - std::countl_zero(v));
    return b < kBuckets ? b : kBuckets - 1;  // clamp values >= 2^63
  }

  // Inclusive lower bound of bucket `i` (0, 1, 2, 4, 8, ...).
  static u64 bucket_min(usize i) noexcept {
    return i == 0 ? 0 : u64{1} << (i - 1);
  }

  void record(u64 v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  u64 bucket(usize i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  u64 count() const noexcept {
    u64 n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  u64 sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  std::array<u64, kBuckets> snapshot() const noexcept {
    std::array<u64, kBuckets> out{};
    for (usize i = 0; i < kBuckets; ++i) out[i] = bucket(i);
    return out;
  }

 private:
  std::array<std::atomic<u64>, kBuckets> buckets_{};
  std::atomic<u64> sum_{0};
};

class MetricRegistry {
 public:
  // Get-or-create by name. The returned reference stays valid for the
  // registry's lifetime; repeated calls with the same name return the same
  // object, so handles can be cached once and updated lock-free thereafter.
  Counter& counter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(std::string(name));
    if (it == counters_.end()) {
      counter_storage_.emplace_back();
      it = counters_.emplace(std::string(name), &counter_storage_.back())
               .first;
    }
    return *it->second;
  }

  Gauge& gauge(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(std::string(name));
    if (it == gauges_.end()) {
      gauge_storage_.emplace_back();
      it = gauges_.emplace(std::string(name), &gauge_storage_.back()).first;
    }
    return *it->second;
  }

  Histogram& histogram(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(std::string(name));
    if (it == histograms_.end()) {
      histogram_storage_.emplace_back();
      it = histograms_.emplace(std::string(name), &histogram_storage_.back())
               .first;
    }
    return *it->second;
  }

  // Name-sorted snapshots (std::map keeps iteration deterministic).
  std::vector<std::pair<std::string, u64>> counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, u64>> out;
    out.reserve(counters_.size());
    for (const auto& [name, c] : counters_) out.emplace_back(name, c->get());
    return out;
  }

  std::vector<std::pair<std::string, u64>> gauges() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, u64>> out;
    out.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) out.emplace_back(name, g->get());
    return out;
  }

  struct HistogramView {
    std::string name;
    std::array<u64, Histogram::kBuckets> buckets{};
    u64 count = 0;
    u64 sum = 0;
  };

  std::vector<HistogramView> histograms() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<HistogramView> out;
    out.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      HistogramView v;
      v.name = name;
      v.buckets = h->snapshot();
      for (u64 b : v.buckets) v.count += b;
      v.sum = h->sum();
      out.push_back(std::move(v));
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
};

}  // namespace bigmap::telemetry
