// Quickstart: fuzz a small synthetic target with BigMap's two-level map.
//
// Shows the minimal public-API flow: generate (or supply) a target
// program, make a seed corpus, configure a campaign, run it, and read the
// results. Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "fuzzer/campaign.h"
#include "target/generator.h"

using namespace bigmap;

int main() {
  // 1. A synthetic target: 800 live blocks, 6 planted bugs behind short
  //    magic-byte chains.
  GeneratorParams params;
  params.name = "quickstart-target";
  params.seed = 42;
  params.live_blocks = 800;
  params.num_bugs = 6;
  params.bug_min_depth = 1;
  params.bug_max_depth = 2;
  GeneratedTarget target = generate_target(params);

  std::printf("target: %zu blocks, %zu static edges, %u bugs planted\n",
              target.program.blocks.size(),
              target.program.static_edge_count(), target.program.num_bugs);

  // 2. A seed corpus (deterministic).
  std::vector<Input> seeds = make_seed_corpus(target, /*count=*/8,
                                              /*seed=*/1);

  // 3. Campaign configuration: BigMap scheme, a generous 2MB map (the
  //    whole point: map size is no longer a cost), 50k test cases.
  CampaignConfig config;
  config.scheme = MapScheme::kTwoLevel;
  config.map.map_size = 2u << 20;
  config.max_execs = 50000;
  config.seed = 7;
  config.dictionary = target.dictionary();  // AFL -x style tokens

  // 4. Run.
  CampaignResult result = run_campaign(target.program, seeds, config);

  // 5. Results.
  std::printf("\nran %llu test cases in %.2fs (%.0f exec/s)\n",
              static_cast<unsigned long long>(result.execs),
              result.wall_seconds, result.throughput());
  std::printf("distinct coverage keys (used_key): %u of %zu map slots\n",
              result.used_key, result.map_size);
  std::printf("covered map positions: %zu\n", result.covered_positions);
  std::printf("corpus grew from %zu seeds to %zu entries\n", seeds.size(),
              result.corpus_size);
  std::printf("crashes: %llu total, %llu unique (Crashwalk), %llu of %u "
              "planted bugs found\n",
              static_cast<unsigned long long>(result.crashes_total),
              static_cast<unsigned long long>(
                  result.crashes_crashwalk_unique),
              static_cast<unsigned long long>(result.crashes_ground_truth),
              target.program.num_bugs);
  // Execs whose target run a spare core made ahead of time (0 and 0 on a
  // one-CPU host, where the campaign runs serially).
  std::printf("pipelined: %llu prefetch hits, %llu misses\n",
              static_cast<unsigned long long>(result.prefetch_hits),
              static_cast<unsigned long long>(result.prefetch_misses));
  return 0;
}
