#include "util/mutex.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <vector>

namespace jps::util::lockorder {
namespace {

// One frame per lock currently held by this thread, oldest first.  Unlock
// order need not be LIFO (MutexLock::unlock() mid-scope, CondVar waits),
// so release searches from the top.
struct HeldFrame {
  const void* instance;
  const char* name;  // nullptr: excluded from the graph
};

// Set when this thread's held stack is destroyed.  A thread's thread_local
// objects die before the process's statics, and a static's destructor may
// still lock a Mutex on that thread (the shared ThreadPool's does, at exit),
// so the hooks must stop touching the stack from then on.  A bool is
// trivially destructible, so it stays readable until the thread is gone.
thread_local bool t_held_stack_gone = false;

struct HeldStack {
  HeldStack() = default;
  HeldStack(const HeldStack&) = delete;
  HeldStack& operator=(const HeldStack&) = delete;
  ~HeldStack() { t_held_stack_gone = true; }

  std::vector<HeldFrame> frames;
};

// This thread's held stack, or nullptr once it has been destroyed.
std::vector<HeldFrame>* held_stack() {
  if (t_held_stack_gone) return nullptr;
  thread_local HeldStack stack;
  return &stack.frames;
}

// The checker's own state is guarded by a RAW std::mutex on purpose: an
// instrumented lock here would recurse into the checker.  This is the one
// sanctioned raw mutex outside the wrappers (CI grep gate allowlists this
// file).
std::mutex g_graph_mutex;

// name -> set of names acquired while `name` was held.  Keyed by value so
// callers may pass non-literal (but static-duration) strings.
std::map<std::string, std::set<std::string>>& graph() {
  static auto* g = new std::map<std::string, std::set<std::string>>();
  return *g;
}

std::atomic<Mode> g_mode{Mode::kOff};
std::atomic<bool> g_mode_initialized{false};
std::atomic<std::uint64_t> g_violations{0};

std::function<void(const std::string&)>& report_hook() {
  static auto* hook = new std::function<void(const std::string&)>();
  return *hook;
}

Mode mode_from_env() {
  const char* env = std::getenv("JPS_LOCK_ORDER");
  if (env != nullptr) {
    const std::string value(env);
    if (value == "abort") return Mode::kAbort;
    if (value == "warn") return Mode::kWarn;
    if (value == "off") return Mode::kOff;
    std::fprintf(stderr,
                 "jps: ignoring unrecognised JPS_LOCK_ORDER=%s "
                 "(expected abort|warn|off)\n",
                 env);
  }
#if defined(NDEBUG)
  return Mode::kOff;
#else
  return Mode::kWarn;
#endif
}

Mode effective_mode() {
  if (!g_mode_initialized.load(std::memory_order_acquire)) {
    // Benign race: every thread computes the same env-derived value.
    g_mode.store(mode_from_env(), std::memory_order_relaxed);
    g_mode_initialized.store(true, std::memory_order_release);
  }
  return g_mode.load(std::memory_order_relaxed);
}

// Depth-first search for a path `from` ~> `to` in the current graph.
// Called with g_graph_mutex held; appends the path (from..to) to `path`
// when found.
bool find_path(const std::string& from, const std::string& to,
               std::set<std::string>& visited,
               std::vector<std::string>& path) {
  if (!visited.insert(from).second) return false;
  path.push_back(from);
  if (from == to) return true;
  auto it = graph().find(from);
  if (it != graph().end()) {
    for (const std::string& next : it->second) {
      if (find_path(next, to, visited, path)) return true;
    }
  }
  path.pop_back();
  return false;
}

// Emits one diagnostic.  Must be called with g_graph_mutex RELEASED: a
// report hook may itself acquire instrumented locks.
void report(Mode mode, const std::string& message) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  std::function<void(const std::string&)> hook;
  {
    std::lock_guard<std::mutex> lock(g_graph_mutex);
    hook = report_hook();
  }
  if (hook) {
    // A hook replaces printing AND aborting so tests can assert on
    // diagnostics from kAbort mode without dying.
    hook(message);
    return;
  }
  std::fprintf(stderr, "jps: %s\n", message.c_str());
  if (mode == Mode::kAbort) std::abort();
}

}  // namespace

Mode mode() { return effective_mode(); }

void set_mode(Mode mode) {
  g_mode.store(mode, std::memory_order_relaxed);
  g_mode_initialized.store(true, std::memory_order_release);
}

void set_report_hook(std::function<void(const std::string&)> hook) {
  std::lock_guard<std::mutex> lock(g_graph_mutex);
  report_hook() = std::move(hook);
}

void reset() {
  std::lock_guard<std::mutex> lock(g_graph_mutex);
  graph().clear();
}

std::uint64_t violations() {
  return g_violations.load(std::memory_order_relaxed);
}

void on_acquire(const void* instance, const char* name) {
  const Mode mode = effective_mode();
  if (mode == Mode::kOff) return;
  std::vector<HeldFrame>* const stack = held_stack();
  if (stack == nullptr) return;
  auto& held = *stack;

  // Same-instance recursion deadlocks std::mutex outright (and recursive
  // lock_shared is UB); report before any graph work.
  for (const HeldFrame& frame : held) {
    if (frame.instance == instance) {
      const char* label = name != nullptr ? name : "<unnamed>";
      report(mode, std::string("lock-order: recursive acquisition of \"") +
                       label + "\" on the same thread");
      break;
    }
  }

  std::string diagnostic;
  if (name != nullptr) {
    std::lock_guard<std::mutex> lock(g_graph_mutex);
    for (const HeldFrame& frame : held) {
      if (frame.name == nullptr || frame.instance == instance) continue;
      const std::string held_name(frame.name);
      const std::string new_name(name);
      if (held_name == new_name) continue;  // same class: see header note
      auto& successors = graph()[held_name];
      if (successors.count(new_name) != 0) continue;  // edge already known
      // Inserting held->new closes a cycle iff new ~> held already exists.
      std::set<std::string> visited;
      std::vector<std::string> path;
      if (find_path(new_name, held_name, visited, path)) {
        diagnostic = "lock-order cycle: acquiring \"" + new_name +
                     "\" while holding \"" + held_name + "\", but ";
        for (const std::string& node : path) diagnostic += "\"" + node + "\" -> ";
        diagnostic += "\"" + new_name +
                      "\" was established earlier; potential deadlock";
        // Keep the contradictory edge out of the graph so the diagnostic
        // re-fires deterministically on every offending acquisition.
      } else {
        successors.insert(new_name);
      }
    }
  }
  held.push_back(HeldFrame{instance, name});
  if (!diagnostic.empty()) report(mode, diagnostic);
}

void on_release(const void* instance) {
  if (effective_mode() == Mode::kOff) return;
  std::vector<HeldFrame>* const stack = held_stack();
  if (stack == nullptr) return;
  auto& held = *stack;
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->instance == instance) {
      held.erase(std::next(it).base());
      return;
    }
  }
  // Not found: the lock was acquired while the checker was off (mode
  // flipped mid-hold) — nothing to unwind.
}

}  // namespace jps::util::lockorder
