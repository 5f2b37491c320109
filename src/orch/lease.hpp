// Lease bookkeeping for the campaign orchestrator.
//
// A lease is the driver's record that one worker currently owns a batch of
// grid points. The table enforces the invariants the work-stealing
// scheduler rests on:
//  * a point is in at most one active lease (duplicate-lease rejection —
//    two workers computing the same point would waste one of the two
//    computations: the driver keeps only the first copy it absorbs),
//  * progress (`point_done`) is only accepted for a point actually pending
//    in that lease (a worker reporting foreign points is a protocol
//    violation, not progress),
//  * a lease completes only when every point in it is done.
//
// Liveness: every protocol line from a worker renews its lease timestamp;
// expired() lists leases whose holder has been silent longer than the hang
// timeout so the supervisor can kill and reassign. Time is passed in
// explicitly (steady_clock time points) so expiry is unit-testable.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace pas::orch {

using Clock = std::chrono::steady_clock;

struct Lease {
  std::uint64_t id = 0;
  int worker = -1;
  /// Every point in the lease, issue order.
  std::vector<std::size_t> points;
  /// Points not yet reported done.
  std::set<std::size_t> pending;
  Clock::time_point issued{};
  Clock::time_point renewed{};
};

class LeaseTable {
 public:
  /// Issues a new lease of `points` to `worker`. Throws std::logic_error
  /// if `points` is empty, contains a duplicate, or contains a point that
  /// is already part of another active lease.
  std::uint64_t issue(int worker, const std::vector<std::size_t>& points,
                      Clock::time_point now);

  /// Refreshes the lease's liveness timestamp. Throws std::logic_error for
  /// an unknown lease id.
  void renew(std::uint64_t id, Clock::time_point now);

  /// Marks one leased point finished (and renews the lease). Throws
  /// std::logic_error if the lease is unknown or the point is not pending
  /// in it — including a second point_done for the same point.
  void mark_done(std::uint64_t id, std::size_t point, Clock::time_point now);

  /// True once every point of the lease is done.
  [[nodiscard]] bool is_complete(std::uint64_t id) const;

  /// Retires a fully-done lease. Throws std::logic_error if the lease is
  /// unknown or still has pending points (a lying `lease_done`).
  void complete(std::uint64_t id);

  /// Drops the lease and returns its unfinished points (for put_back).
  /// Throws std::logic_error for an unknown lease id.
  std::vector<std::size_t> revoke(std::uint64_t id);

  /// The active lease held by `worker`, if any (workers hold at most one).
  [[nodiscard]] std::optional<std::uint64_t> lease_of(int worker) const;

  /// Leases whose last renewal is more than `timeout_s` seconds before
  /// `now` — crashed-silent or hung holders.
  [[nodiscard]] std::vector<std::uint64_t> expired(Clock::time_point now,
                                                   double timeout_s) const;

  [[nodiscard]] const Lease* find(std::uint64_t id) const;
  [[nodiscard]] std::size_t active() const noexcept { return leases_.size(); }

 private:
  Lease& get(std::uint64_t id, const char* op);

  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Lease> leases_;
  /// Points currently under any active lease (duplicate rejection).
  std::set<std::size_t> leased_points_;
};

}  // namespace pas::orch
