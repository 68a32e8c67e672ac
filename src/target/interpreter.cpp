#include "target/interpreter.h"

#include <stdexcept>
#include <string>

namespace bigmap {

const LoweredProgram& Interpreter::table_of(const Program& prog) {
  const usize lowered = prog.lowered_.blocks.size();
  if (lowered == 0) {
    throw std::logic_error("Interpreter::run: program '" + prog.name +
                           "' was not validated");
  }
  if (lowered != prog.blocks.size()) {
    throw std::logic_error("Interpreter::run: program '" + prog.name +
                           "' was edited after validate() (" +
                           std::to_string(prog.blocks.size()) +
                           " blocks, table has " + std::to_string(lowered) +
                           ")");
  }
  return prog.lowered_;
}

void Interpreter::begin_run(usize num_blocks) {
  call_stack_.clear();
  if (loop_epoch_.size() < num_blocks) {
    loop_epoch_.assign(num_blocks, 0);
    loop_count_.assign(num_blocks, 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // epoch wrapped: do the rare full clear
    std::fill(loop_epoch_.begin(), loop_epoch_.end(), 0);
    epoch_ = 1;
  }
}

u64 Interpreter::hash_call_stack() const noexcept {
  // Crashwalk-style identity: fold the return addresses top-down so the
  // same bug reached through different call paths dedups separately.
  u64 h = 0xcbf29ce484222325ULL;
  for (u32 frame : call_stack_) {
    h = hash_combine(h, frame);
  }
  return h;
}

}  // namespace bigmap
