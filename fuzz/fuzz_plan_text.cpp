// Fuzz the two line-oriented text parsers that share the plan-artifact
// corpus: core::deserialize_plan (jps-plan v1) and
// profile::LookupTable::deserialize (jps-lookup-table v1).
//
// Contract for both: return a value or throw std::runtime_error — never
// crash, never accept-and-corrupt.  Accepted input must round-trip:
// serialize(deserialize(text)) is a fixed point under re-parsing, and an
// accepted plan carries one f and one g lane entry per job.
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/plan_io.h"
#include "profile/lookup_table.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);

  try {
    const jps::core::ExecutionPlan plan = jps::core::deserialize_plan(text);
    if (plan.f_lane.size() != plan.jobs.size() ||
        plan.g_lane.size() != plan.jobs.size())
      __builtin_trap();
    const std::string once = jps::core::serialize_plan(plan);
    const std::string twice =
        jps::core::serialize_plan(jps::core::deserialize_plan(once));
    if (once != twice) __builtin_trap();
  } catch (const std::runtime_error&) {
  }

  try {
    const jps::profile::LookupTable table =
        jps::profile::LookupTable::deserialize(text);
    const std::string once = table.serialize();
    const std::string twice =
        jps::profile::LookupTable::deserialize(once).serialize();
    if (once != twice) __builtin_trap();
  } catch (const std::runtime_error&) {
  }
  return 0;
}
