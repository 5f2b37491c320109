// Allocation budget of the campaign hot path.
//
// A warm world::Workspace reuses every buffer between replications, so a
// replication should allocate only a handful of times per node. This binary
// replaces the global operator new with a counting version (forwarding to
// malloc, so sanitizers still track every block) and gates the count: a
// per-event closure that silently spills out of sim::SmallFn's inline
// buffer multiplies the number by the event count and fails here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "world/paper_setup.hpp"
#include "world/workspace.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pas::world {
namespace {

// Well above a warm run's few allocations per node, far below the dozens
// per node that one allocating per-event closure adds.
constexpr double kMaxAllocsPerNodePerRun = 10.0;

struct Case {
  core::Policy policy;
  StimulusKind stimulus;
  const char* name;
};

TEST(Allocations, WarmWorkspaceRunStaysWithinBudget) {
  const Case cases[] = {
      {core::Policy::kPas, StimulusKind::kRadial, "PAS radial"},
      {core::Policy::kSas, StimulusKind::kPlume, "SAS plume"},
      {core::Policy::kNeverSleep, StimulusKind::kRadial, "NS radial"},
  };
  for (const Case& c : cases) {
    PaperSetupOverrides o;
    o.policy = c.policy;
    o.stimulus = c.stimulus;
    o.seed = 1;
    const ScenarioConfig warm = paper_scenario(o);
    ASSERT_FALSE(warm.mac.enabled) << "the paper scenario runs without a MAC";
    ScenarioConfig measured = warm;
    measured.seed = 2;

    Workspace ws;
    (void)ws.run_metrics(warm);

    g_allocs.store(0);
    g_counting.store(true);
    const metrics::RunMetrics& m = ws.run_metrics(measured);
    g_counting.store(false);
    const std::size_t allocs = g_allocs.load();

    const double per_node = static_cast<double>(allocs) /
                            static_cast<double>(m.node_count);
    EXPECT_LE(per_node, kMaxAllocsPerNodePerRun)
        << c.name << ": " << allocs << " allocations over " << m.node_count
        << " nodes, " << m.network.deliveries << " deliveries";
    std::printf("%s: %.2f allocations per node per run\n", c.name, per_node);
  }
}

}  // namespace
}  // namespace pas::world
