// Coverage metrics: block trace -> coverage-map keys.
//
// AFL-style instrumentation assigns every basic block a random compile-time
// ID uniformly drawn from [0, MAP_SIZE) and derives a coverage key for each
// executed edge. This module reproduces Listing 1's scheme plus the two
// "more expressive" metrics the paper composes on large maps:
//
//   EdgeMetric      E_xy = (B_x >> 1) ^ B_y          (AFL default)
//   NGramMetric     hash of the last N block IDs     (partial path coverage)
//   ContextMetric   calling-context hash ^ edge      (Angora-style)
//
// A metric is a small stateful object: reset per execution, fed one block
// ID per executed block, returning the map key to bump. All calls are
// inlined into the interpreter loop (metrics are template parameters of the
// executor) — no virtual dispatch per edge. BigMap works with any of these
// unchanged (paper §IV-D: "any coverage metric can be used in edge ID's
// place").
#pragma once

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/hash.h"
#include "util/rng.h"
#include "util/types.h"

namespace bigmap {

// Metric selector for runtime-configured call sites. kNGram is the
// paper's N = 3; the 2/4/8 variants support the map-pressure ablation
// (larger windows hash more context into each key).
enum class MetricKind : u8 {
  kEdge,
  kNGram,   // N = 3 (the paper's composition experiment)
  kNGram2,
  kNGram4,
  kNGram8,
  kContext,
};

inline const char* metric_name(MetricKind m) noexcept {
  switch (m) {
    case MetricKind::kEdge:
      return "edge";
    case MetricKind::kNGram:
      return "ngram3";
    case MetricKind::kNGram2:
      return "ngram2";
    case MetricKind::kNGram4:
      return "ngram4";
    case MetricKind::kNGram8:
      return "ngram8";
    case MetricKind::kContext:
      return "context";
  }
  return "?";
}

// Compile-time random block-ID assignment (Listing 1, line 1): every block
// of a program gets an ID uniformly distributed over [0, map_size).
// Collisions between block IDs are possible and intended — they are part of
// what Equation 1 models.
class BlockIdTable {
 public:
  // `map_size` must be a power of two (checked by the map classes already;
  // the table only needs the modulus).
  BlockIdTable(usize num_blocks, usize map_size, u64 seed) {
    ids_.resize(num_blocks);
    Xoshiro256 rng(seed);
    const u32 mask = static_cast<u32>(map_size - 1);
    for (auto& id : ids_) id = static_cast<u32>(rng.next()) & mask;
  }

  u32 id(u32 block_index) const noexcept { return ids_[block_index]; }
  usize size() const noexcept { return ids_.size(); }

 private:
  std::vector<u32> ids_;
};

// AFL's edge hit-count key: E_xy = (B_x >> 1) ^ B_y.
class EdgeMetric {
 public:
  explicit EdgeMetric(const BlockIdTable& ids) noexcept : ids_(&ids) {}

  void begin_execution() noexcept { prev_ = 0; }

  // Returns the map key for the edge into `block_index`.
  u32 visit(u32 block_index) noexcept {
    const u32 cur = ids_->id(block_index);
    const u32 key = (prev_ >> 1) ^ cur;
    prev_ = cur;
    return key;
  }

 private:
  const BlockIdTable* ids_;
  u32 prev_ = 0;
};

// N-gram partial path coverage: the key is a mix of the last N block IDs
// (the paper's composition experiment uses N = 3). N = 1 degenerates to
// basic-block coverage; N = 2 is equivalent in spirit to edge coverage.
template <usize N>
class NGramMetric {
  static_assert(N >= 1 && N <= 8, "N-gram window must be 1..8");

 public:
  explicit NGramMetric(const BlockIdTable& ids) noexcept : ids_(&ids) {}

  void begin_execution() noexcept {
    window_.fill(0);
    cursor_ = 0;
  }

  u32 visit(u32 block_index) noexcept {
    window_[cursor_] = ids_->id(block_index);
    cursor_ = (cursor_ + 1) % N;
    // Order-sensitive mix of the window contents, oldest first.
    u64 h = 0;
    for (usize i = 0; i < N; ++i) {
      h = hash_combine(h, window_[(cursor_ + i) % N]);
    }
    return static_cast<u32>(h);
  }

 private:
  const BlockIdTable* ids_;
  std::array<u32, N> window_{};
  usize cursor_ = 0;
};

// Calling-context-sensitive edge coverage (Angora-style): the edge key is
// XORed with a hash of the current call stack, distinguishing the same edge
// reached through different call chains. The executor notifies call/return
// transitions.
class ContextMetric {
 public:
  explicit ContextMetric(const BlockIdTable& ids) noexcept : ids_(&ids) {}

  void begin_execution() noexcept {
    prev_ = 0;
    ctx_ = 0;
    ctx_stack_.clear();
  }

  void on_call(u32 callee_entry) noexcept {
    ctx_stack_.push_back(ctx_);
    ctx_ = static_cast<u32>(mix64(ctx_ ^ ids_->id(callee_entry)));
  }

  void on_return() noexcept {
    if (!ctx_stack_.empty()) {
      ctx_ = ctx_stack_.back();
      ctx_stack_.pop_back();
    }
  }

  u32 visit(u32 block_index) noexcept {
    const u32 cur = ids_->id(block_index);
    const u32 key = ((prev_ >> 1) ^ cur) ^ ctx_;
    prev_ = cur;
    return key;
  }

 private:
  const BlockIdTable* ids_;
  u32 prev_ = 0;
  u32 ctx_ = 0;
  std::vector<u32> ctx_stack_;
};

// Calls f.template operator()<Metric>() with the metric class `m` names:
// the one runtime-to-template metric switch. Throws std::invalid_argument
// for a value outside MetricKind.
template <class F>
decltype(auto) dispatch_metric(MetricKind m, F&& f) {
  switch (m) {
    case MetricKind::kEdge:
      return f.template operator()<EdgeMetric>();
    case MetricKind::kNGram:
      return f.template operator()<NGramMetric<3>>();
    case MetricKind::kNGram2:
      return f.template operator()<NGramMetric<2>>();
    case MetricKind::kNGram4:
      return f.template operator()<NGramMetric<4>>();
    case MetricKind::kNGram8:
      return f.template operator()<NGramMetric<8>>();
    case MetricKind::kContext:
      return f.template operator()<ContextMetric>();
  }
  throw std::invalid_argument("unknown metric kind " +
                              std::to_string(static_cast<unsigned>(m)));
}

}  // namespace bigmap
