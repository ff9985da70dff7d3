// Differential fuzz target for the two-type planner kernels: the fast
// sched::two_type_flowshop2_makespan and core::best_two_type_split must
// return exactly what the O(n) loops in tests/oracles/two_type_oracles.h
// return, and must throw std::invalid_argument exactly on the inputs
// outside their documented domain.
//
// Input layout (missing bytes read as zero): four stage values, two run
// lengths for the recurrence, then four more stage values and a job count
// (<= 65536) for the split.  Each stage starts with a mode byte choosing a
// raw IEEE double (NaN, inf, negatives), a short mantissa times a power of
// two (rounding ties), a small integer, or a 16.16 fixed-point value.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "core/planner.h"
#include "oracles/two_type_oracles.h"
#include "sched/makespan.h"

namespace {

struct Reader {
  const std::uint8_t* data;
  std::size_t size;

  template <typename T>
  T take() {
    T value{};
    const std::size_t n = size < sizeof value ? size : sizeof value;
    std::memcpy(&value, data, n);
    data += n;
    size -= n;
    return value;
  }

  double stage() {
    switch (take<std::uint8_t>() % 4) {
      case 0: return take<double>();
      case 1:
        return std::ldexp(static_cast<double>(take<std::uint8_t>()),
                          take<std::int8_t>() / 4);
      case 2: return static_cast<double>(take<std::uint16_t>());
      default: return static_cast<double>(take<std::uint32_t>()) / 65536.0;
    }
  }
};

void check_recurrence(Reader& in) {
  const double f_a = in.stage(), g_a = in.stage();
  const double f_b = in.stage(), g_b = in.stage();
  const int n_a = in.take<std::uint16_t>() - 1024;  // negatives are empty runs
  const int n_b = in.take<std::uint16_t>() - 1024;
  const auto negative = [](double f, double g, int n) {
    return n > 0 && (f < 0.0 || g < 0.0);
  };
  const bool in_domain = !negative(f_a, g_a, n_a) && !negative(f_b, g_b, n_b);
  double fast = 0.0;
  try {
    fast = jps::sched::two_type_flowshop2_makespan(f_a, g_a, n_a, f_b, g_b,
                                                   n_b);
  } catch (const std::invalid_argument&) {
    if (in_domain) __builtin_trap();
    return;
  }
  if (!in_domain) __builtin_trap();
  const double loop =
      jps::oracle::two_type_flowshop2_loop(f_a, g_a, n_a, f_b, g_b, n_b);
  if (std::memcmp(&fast, &loop, sizeof fast) != 0) __builtin_trap();
}

void check_split(Reader& in) {
  const double f_a = in.stage(), g_a = in.stage();
  const double f_b = in.stage(), g_b = in.stage();
  const int n = static_cast<int>(in.take<std::uint16_t>()) +
                (in.take<std::uint8_t>() & 1);  // 0..65536
  const bool finite = std::isfinite(f_a) && std::isfinite(g_a) &&
                      std::isfinite(f_b) && std::isfinite(g_b);
  const bool in_domain =
      f_a >= 0.0 && g_a >= 0.0 && f_b >= 0.0 && g_b >= 0.0 &&
      (!finite || n < 2 || (f_a + g_a + f_b + g_b) * (n + 2.0) < 0x1p1023);
  int fast = 0;
  try {
    fast = jps::core::best_two_type_split(f_a, g_a, f_b, g_b, n);
  } catch (const std::invalid_argument&) {
    if (in_domain) __builtin_trap();
    return;
  }
  if (!in_domain) __builtin_trap();
  if (fast != jps::oracle::best_two_type_split_scan(f_a, g_a, f_b, g_b, n))
    __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  Reader in{data, size};
  check_recurrence(in);
  check_split(in);
  return 0;
}
