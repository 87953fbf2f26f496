#ifndef SURF_UTIL_CANCEL_H_
#define SURF_UTIL_CANCEL_H_

/// \file
/// \brief Cooperative cancellation: CancelSource/CancelToken and the live
/// SearchProgress observer long-running loops update.
///
/// Cancellation in SuRF is cooperative and deadline-aware: a request
/// owner holds a CancelSource and hands copies of its CancelToken to the
/// expensive loops (workload labelling, GBRT boosting rounds, KDE
/// fitting, GSO iterations). Each loop polls `cancelled()` once per
/// iteration — one atomic load plus, when a deadline is armed, one
/// steady_clock read — and unwinds within a single iteration when the
/// flag fires or the deadline passes. Nothing is ever interrupted
/// mid-iteration, so partial state (the swarm so far, the trees fitted so
/// far) stays consistent and can be reported with the Cancelled status.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "util/status.h"

namespace surf {

/// \brief Shared state behind a CancelSource and its tokens.
struct CancelStateImpl {
  /// Set once by CancelSource::Cancel; never cleared.
  std::atomic<bool> cancelled{false};
  /// Armed deadline in steady-clock ticks since epoch (0 = no deadline).
  std::atomic<int64_t> deadline_ns{0};
};

/// \brief Cheap copyable view of a cancellation request.
///
/// A default-constructed token is inert: it never reports cancellation,
/// so every cancellation hook can take one by value with a `{}` default
/// and legacy callers stay untouched.
class CancelToken {
 public:
  /// Inert token (never cancelled, no deadline).
  CancelToken() = default;

  /// True once the owning source was cancelled or its deadline passed.
  bool cancelled() const {
    if (state_ == nullptr) return false;
    if (state_->cancelled.load(std::memory_order_acquire)) return true;
    const int64_t deadline = state_->deadline_ns.load(std::memory_order_acquire);
    if (deadline == 0) return false;
    return std::chrono::steady_clock::now().time_since_epoch().count() >=
           deadline;
  }

  /// Cancelled("...") when `cancelled()`, OK otherwise — the status a
  /// loop should return when it unwinds.
  Status ToStatus() const {
    return cancelled() ? Status::Cancelled("request cancelled") : Status::OK();
  }

  /// Whether this token is wired to a source at all (an inert token can
  /// be skipped entirely by hot loops).
  bool can_cancel() const { return state_ != nullptr; }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<const CancelStateImpl> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const CancelStateImpl> state_;
};

/// \brief Owner side of a cancellation: create one per request, hand out
/// tokens, call Cancel() (idempotent) or arm a deadline.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<CancelStateImpl>()) {}

  /// A token observing this source.
  CancelToken token() const { return CancelToken(state_); }

  /// Requests cancellation. Idempotent; a no-op after the work finished.
  void Cancel() { state_->cancelled.store(true, std::memory_order_release); }

  /// Arms (or re-arms) a deadline `seconds` from now; tokens report
  /// cancelled once it passes. Non-positive values cancel immediately.
  void SetDeadline(double seconds) {
    if (seconds <= 0.0) {
      Cancel();
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    state_->deadline_ns.store(deadline.time_since_epoch().count(),
                              std::memory_order_release);
  }

  /// Whether Cancel() was called or the armed deadline passed.
  bool cancelled() const { return token().cancelled(); }

 private:
  std::shared_ptr<CancelStateImpl> state_;
};

/// \brief Live progress counters a search loop updates once per
/// iteration. Lock-free: any thread may read a consistent-enough snapshot
/// while the search runs (the counters are independently atomic, not
/// mutually consistent — good enough for progress reporting).
struct SearchProgress {
  /// Optimizer iterations completed so far.
  std::atomic<uint64_t> iterations{0};
  /// Iteration budget of the current search (0 until the loop starts).
  std::atomic<uint64_t> max_iterations{0};
  /// Particles currently holding a valid (defined) objective — the live
  /// proxy for regions-found-so-far before distinct-region extraction.
  std::atomic<uint64_t> valid_particles{0};
};

}  // namespace surf

#endif  // SURF_UTIL_CANCEL_H_
