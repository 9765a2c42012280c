// Event re-materialization for checkpoint restore.
//
// The EventQueue holds closures, which cannot travel through a snapshot.
// Instead, every component that keeps events in flight reifies them as
// plain state (tick, payload, and the EventStamp the live queue assigned),
// and after all sections are loaded each component registers a small "arm"
// closure per pending event here. replay() then re-schedules them via
// EventQueue::scheduleStamped under their original stamps: the stamp *is*
// the merge position, so replay order is irrelevant for event ordering —
// the registration-order pass exists only to give every component one
// uniform re-arm hook. Bitwise restore-equivalence tests pin the result.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/event_queue.hpp"

namespace mb::ckpt {

class EventRestorer {
 public:
  /// Register one pending event. `arm` must call
  /// EventQueue::scheduleStamped itself with the event's saved stamp.
  void add(std::function<void()> arm) { entries_.push_back(std::move(arm)); }

  /// Re-schedule everything.
  void replay() {
    for (auto& arm : entries_) arm();
    entries_.clear();
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::function<void()>> entries_;
};

/// Stamp walk shared by every component that reifies pending events
/// (fixed 40-byte little-endian layout; part of MBCKPT1 v2).
template <class Ar>
void ioStamp(Ar& ar, EventStamp& st) {
  ar.i64(st.schedTick);
  ar.i32(st.srcShard);
  ar.u64(st.counter);
  ar.i64(st.parentSchedTick);
  ar.i32(st.parentShard);
  ar.u64(st.parentCounter);
}

}  // namespace mb::ckpt
