#include "mc/controller.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <unordered_map>

#include "common/check.hpp"

namespace mb::mc {

MemoryController::MemoryController(ChannelId id, const dram::Geometry& geom,
                                   const dram::TimingParams& timing,
                                   const dram::EnergyParams& energy,
                                   const core::AddressMap& addressMap,
                                   const ControllerConfig& config, EventQueue& eventQueue)
    : id_(id),
      geom_(geom),
      map_(addressMap),
      cfg_(config),
      eq_(eventQueue),
      channel_(geom, timing),
      meter_(energy),
      scheduler_(makeScheduler(config.scheduler)),
      schedKind_(scheduler_->kind()),
      policy_(core::makePagePolicy(config.pagePolicy)) {
  speculations_.resize(static_cast<std::size_t>(channel_.ubankCount()));
  queuedOnUb_.assign(static_cast<std::size_t>(channel_.ubankCount()), 0);
  classes_.resize(static_cast<std::size_t>(geom.ranksPerChannel) * 4);
  classBits_.assign((classes_.size() + 63) / 64, 0);
  cursors_.resize(classes_.size());
  rowUsers_.resize(static_cast<std::size_t>(channel_.ubankCount()));
  ubDirty_.assign(static_cast<std::size_t>(channel_.ubankCount()), 0);
  ubHead_.assign(static_cast<std::size_t>(channel_.ubankCount()), -1);
  channel_.refreshEnabled = cfg_.refreshEnabled;
  channel_.perBankRefresh = cfg_.perBankRefresh;
  if (cfg_.enableTimingCheck) {
    checker_.emplace(geom, timing);
    checker_->diagnostics = cfg_.diagnostics;
  }
}

void MemoryController::enqueue(MemRequest req) {
  req.id = nextRequestId_++;
  MB_CHECK(req.id <= kKeyIdMask);  // the id is the low field of the priority key
  req.arrival = eq_.now();
  req.da = map_.decompose(req.addr);
  // Force the decomposed channel to this controller: the caller routes by
  // the same address map, so this is a consistency check, not a remap.
  MB_DCHECK(req.da.channel == id_);

  const std::int64_t flat = req.da.flatUbank(geom_);
  const bool isWrite = req.write;

  // Admission-side state changes below invalidate the wake computed by an
  // earlier kick at this tick; the batched-admission fast path at the end
  // of this function is only taken when none occurred.
  bool wasReads = false, wasWrites = false;
  serveFlags(wasReads, wasWrites);
  bool mutated = false;

  const int ub = channel_.ubankIndex(req.da);
  // Resolve any outstanding speculative page decision for this μbank now
  // that the next access is known (§V: the predictor trains on whether the
  // next access would have hit the previously open row).
  resolveSpeculation(flat, ub, req.da.row);
  // A policy-requested idle precharge is cancelled if the incoming request
  // wants exactly the still-open row.
  auto pc = pendingCloses_.find(flat);
  if (pc != pendingCloses_.end()) {
    if (channel_.openRow(ub) == req.da.row) {
      pendingCloses_.erase(pc);
      mutated = true;
    }
  }
  // Oracle resolution: charge the retrospectively-best decision (§V).
  if (channel_.resolveLazy(req.da, ub) == ChannelState::LazyOutcome::Closed) {
    if (checker_) checker_->onOraclePre(req.da);
    if (cfg_.commandLog) cfg_.commandLog->onOraclePre(req.da, eq_.now());
    markDirty(ub);
    mutated = true;
  }

  ReqHandle admitted{};
  bool inWindow = false;  // landed in a scheduler-visible queue
  if (req.write) {
    writes_.inc();
    // Coalesce with an already-buffered write to the same line.
    for (const ReqHandle w : writeQ_) {
      if (pool_.ref(w).req.addr == req.addr) return;
    }
    Pending p;
    p.req = std::move(req);
    p.flat = flat;
    p.ub = ub;
    admitted = pool_.alloc(std::move(p));
    writeQ_.push_back(admitted);
    placeRecord(admitted);
    ++queuedOnUb_[static_cast<std::size_t>(ub)];
    markDirty(ub);
    inWindow = true;
    if (static_cast<int>(writeQ_.size()) >= cfg_.writeHighWatermark)
      drainingWrites_ = true;  // serve-flag flip: caught by the compare below
  } else {
    reads_.inc();
    // Forward from a buffered write to the same line: the data is newer
    // than DRAM and available immediately after a queue lookup.
    for (const ReqHandle w : writeQ_) {
      if (pool_.ref(w).req.addr == req.addr) {
        forwarded_.inc();
        if (req.onComplete) {
          const Tick done = eq_.now() + channel_.timing().tCMD;
          scheduleCompletion(std::move(req.onComplete), done, req.addr, req.core);
        }
        return;
      }
    }
    Pending p;
    p.req = std::move(req);
    p.flat = flat;
    p.ub = ub;
    admitted = pool_.alloc(std::move(p));
    ++queuedOnUb_[static_cast<std::size_t>(ub)];
    if (static_cast<int>(readQ_.size()) < cfg_.queueDepth) {
      scheduler_->onEnqueue(pool_.get(admitted).req);
      readQ_.push_back(admitted);
      placeRecord(admitted);
      markDirty(ub);
      inWindow = true;
    } else {
      overflowQ_.push_back(admitted);
    }
    queueOcc_.update(eq_.now(),
                     static_cast<double>(readQ_.size() + overflowQ_.size()));
  }

  bool nowReads = false, nowWrites = false;
  serveFlags(nowReads, nowWrites);
  if (nowReads != wasReads || nowWrites != wasWrites) mutated = true;

  // Batched admission: when a full kick already ran at this tick, nothing
  // above changed device or scheduler state, and arbitrating now could not
  // form a new priority batch, a second full pass over the queue would
  // reach the exact same conclusions as the previous one — except for the
  // one new candidate. Its earliest issue tick is the only new information,
  // so fold it into the armed wake-up and skip the pass. With the command
  // bus busy (every earliest* is lower-bounded by the bus-free tick) the
  // new candidate cannot issue now, so deferring it to the woken kick is
  // behaviour-identical to the full pass.
  if (!mutated && lastKickTick_ == eq_.now() && !scheduler_->wouldFormBatch()) {
    const bool candidate = isWrite ? nowWrites : (inWindow && nowReads);
    if (!candidate) return;  // invisible to arbitration: the armed wake stands
    if (channel_.cmdBusFreeAt() > eq_.now()) {
      // Refreshing now does the work the next pass would: only admissions
      // happened since the last pass, so the records it computes are the
      // ones the next pass would compute.
      refreshRecords(nowReads, nowWrites);
      const Record& r = rec(slotOf(admitted));
      if (r.term != kTickNever) {
        channel_.commandFloors(eq_.now(), floors_);
        const Tick e = earliestOf(r);
        MB_DCHECK(e > eq_.now());  // bus busy lower-bounds every earliest*
        scheduleKick(e);
      }
      return;
    }
  }
  kick();
}

void MemoryController::resolveSpeculation(std::int64_t flat, int ub,
                                          std::int64_t incomingRow) {
  SpecSlot& slot = speculations_[static_cast<std::size_t>(ub)];
  if (!slot.live) return;
  const bool sameRow = slot.s.row == incomingRow;
  const bool predictedOpen = slot.s.decision == core::PageDecision::KeepOpen;
  specDecisions_.inc();
  if (predictedOpen == sameRow) specCorrect_.inc();
  policy_->observeOutcome(flat, slot.s.thread, sameRow);
  slot.live = false;
  --liveSpeculations_;
}

MemoryController::Record& MemoryController::placeRecord(ReqHandle h) {
  const Pending& p = pool_.ref(h);
  const auto slot = static_cast<std::size_t>(h.idx);
  if (slot >= recs_.size()) recs_.resize(slot + 1);
  Record& r = recs_[slot];
  r = Record{};
  r.h = h;
  r.id = p.req.id;
  r.arrival = p.req.arrival;
  r.row = p.req.da.row;
  r.ub = p.ub;
  r.rank = p.req.da.rank;
  r.thread = p.req.thread;
  r.write = p.req.write;
  int& head = ubHead_[static_cast<std::size_t>(r.ub)];
  r.nextOnUb = head;
  if (head >= 0) rec(head).prevOnUb = slotOf(h);
  head = slotOf(h);
  return r;
}

void MemoryController::unlinkRecord(const Record& r) {
  if (r.prevOnUb >= 0)
    rec(r.prevOnUb).nextOnUb = r.nextOnUb;
  else
    ubHead_[static_cast<std::size_t>(r.ub)] = r.nextOnUb;
  if (r.nextOnUb >= 0) rec(r.nextOnUb).prevOnUb = r.prevOnUb;
}

template <class F>
void MemoryController::forEachServed(bool reads, bool writes, F&& f) {
  if (reads) {
    for (std::size_t i = 0; i < readQ_.size(); ++i)
      f(rec(slotOf(readQ_[i])), static_cast<int>(i));
  }
  if (writes) {
    for (std::size_t i = 0; i < writeQ_.size(); ++i)
      f(rec(slotOf(writeQ_[i])), ~static_cast<int>(i));
  }
}

void MemoryController::refreshRecords(bool servingReads, bool servingWrites) {
  if (servingReads != servedReads_ || servingWrites != servedWrites_) {
    servedReads_ = servingReads;
    servedWrites_ = servingWrites;
    markAllDirty();
  }
  if (!allDirty_ && dirtyUbs_.empty()) return;
  // First sweep: each dirty record's next command, μbank term and key, and
  // the open-row users (requests whose next command is a CAS) of each dirty
  // μbank. Dirt is per μbank, and a dirty μbank's list holds every one of
  // its records, so every user of a dirty μbank is swept.
  ++rowUsersPass_;
  touched_.clear();
  auto recompute = [&](Record& r) {
    ++candidateRefreshes_;
    touched_.push_back(Touched{slotOf(r.h), r.term != kTickNever, classOf(r), r.key, r.term});
    const std::int64_t open = channel_.openRow(r.ub);
    if (open == r.row) {  // rows are non-negative, so this means open
      r.next = r.write ? DramCommand::Write : DramCommand::Read;
      RowUsers& u = rowUsers_[static_cast<std::size_t>(r.ub)];
      if (u.pass != rowUsersPass_) u = RowUsers{rowUsersPass_, kTickNever, kTickNever};
      u.oldest = std::min(u.oldest, r.arrival);
      if (r.marked) u.oldestMarked = std::min(u.oldestMarked, r.arrival);
    } else {
      r.next = open < 0 ? DramCommand::Act : DramCommand::Pre;
    }
    r.term = channel_.ubankTerm(r.next, r.ub);
    rekey(r);
  };
  if (allDirty_) {
    forEachServed(servingReads, servingWrites, [&](Record& r, int) { recompute(r); });
  } else {
    for (const int ub : dirtyUbs_) {
      for (int slot = ubHead_[static_cast<std::size_t>(ub)]; slot >= 0;) {
        Record& r = rec(slot);
        slot = r.nextOnUb;
        if (r.write ? servingWrites : servingReads) recompute(r);
      }
    }
  }
  // Second sweep: hold back precharges that would steal an older user's row.
  for (const Touched& t : touched_) {
    Record& r = rec(t.slot);
    if (r.next != DramCommand::Pre) continue;
    ++preBlockVisits_;
    if (preBlockedByOlderRowUser(r)) r.term = kTickNever;
  }
  if (allDirty_) {
    rebuildClasses(servingReads, servingWrites);
  } else {
    for (const Touched& t : touched_) {
      const Record& r = rec(t.slot);
      const bool inClass = r.term != kTickNever;
      if (t.inClass && inClass && t.cls == classOf(r) && t.key == r.key) {
        classRetime(t.cls, r.key, t.term, r.term);
        continue;
      }
      if (t.inClass) classErase(t.cls, t.key, t.term);
      if (inClass) classInsert(r);
    }
  }
  for (const int ub : dirtyUbs_) ubDirty_[static_cast<std::size_t>(ub)] = 0;
  dirtyUbs_.clear();
  allDirty_ = false;
}

bool MemoryController::preBlockedByOlderRowUser(const Record& r) const {
  // Do not steal an open row from an older request that still wants it —
  // but only if that request is itself schedulable right now (it then
  // outranks this precharge in every scheduler, so deferring cannot
  // livelock). An older row-user that is not currently a candidate (write
  // outside a drain burst) must not block progress indefinitely; the table
  // only holds served requests.
  const RowUsers& u = rowUsers_[static_cast<std::size_t>(r.ub)];
  if (u.pass != rowUsersPass_ || u.oldest >= r.arrival) return false;
  // A batch-marked request outranks unmarked row users regardless of age
  // (PAR-BS fairness: the batch boundary must bound a row hog's damage).
  return !r.marked || u.oldestMarked < r.arrival;
}

void MemoryController::classInsert(const Record& r) {
  KeyClass& c = classes_[static_cast<std::size_t>(classOf(r))];
  c.items.insert(c.find(r.key), KeyClass::Entry{r.key, r.term, slotOf(r.h)});
  if (r.term < c.minTerm) c.minTerm = r.term;
  setClassBit(static_cast<std::size_t>(classOf(r)), true);
}

void MemoryController::classErase(int cls, std::uint64_t key, Tick term) {
  KeyClass& c = classes_[static_cast<std::size_t>(cls)];
  const auto at = c.find(key);
  MB_DCHECK(at != c.items.end() && at->key == key && at->term == term);
  c.items.erase(at);
  if (c.items.empty()) {
    c.minTerm = kTickNever;
    c.minStale = false;
    setClassBit(static_cast<std::size_t>(cls), false);
  } else if (term <= c.minTerm) {
    c.minStale = true;
  }
}

void MemoryController::classRetime(int cls, std::uint64_t key, Tick oldTerm, Tick term) {
  KeyClass& c = classes_[static_cast<std::size_t>(cls)];
  const auto at = c.find(key);
  MB_DCHECK(at != c.items.end() && at->key == key && at->term == oldTerm);
  at->term = term;
  if (term <= c.minTerm) {
    c.minTerm = term;  // exact: every other term is at least the old minimum
    c.minStale = false;
  } else if (oldTerm <= c.minTerm) {
    c.minStale = true;
  }
}

Tick MemoryController::classMinTerm(KeyClass& c) {
  if (c.minStale) {
    c.minTerm = kTickNever;
    for (const KeyClass::Entry& e : c.items) c.minTerm = std::min(c.minTerm, e.term);
    c.minStale = false;
  }
  return c.minTerm;
}

void MemoryController::rebuildClasses(bool servingReads, bool servingWrites) {
  // Only the non-empty classes hold anything to clear (an empty one already
  // has no minimum), so a shallow queue pays for its records, not for every
  // class of the channel.
  forEachClass([](int, KeyClass& c) {
    c.items.clear();
    c.minTerm = kTickNever;
    c.minStale = false;
  });
  std::fill(classBits_.begin(), classBits_.end(), 0);
  forEachServed(servingReads, servingWrites, [&](const Record& r, int) {
    if (r.term == kTickNever) return;
    const int cls = classOf(r);
    KeyClass& c = classes_[static_cast<std::size_t>(cls)];
    c.items.push_back(KeyClass::Entry{r.key, r.term, slotOf(r.h)});
    c.minTerm = std::min(c.minTerm, r.term);
    setClassBit(static_cast<std::size_t>(cls), true);
  });
  forEachClass([](int, KeyClass& c) {
    std::sort(c.items.begin(), c.items.end(), KeyClass::byKey);
  });
}

template <class F>
void MemoryController::forEachClass(F&& f) {
  for (std::size_t w = 0; w < classBits_.size(); ++w) {
    for (std::uint64_t bits = classBits_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      f(static_cast<int>(i), classes_[i]);
    }
  }
}

Tick MemoryController::classWake() {
  Tick wake = kTickNever;
  forEachClass([&](int cls, KeyClass& c) {
    wake = std::min(wake, std::max(floorOf(cls), classMinTerm(c)));
  });
  return wake;
}

MemoryController::Pick MemoryController::pickByKey(Tick now) {
  // Cursors into the classes that can hold an issuable record: floor and
  // minimum term both passed. Merging them in key order, the first record
  // whose own term has passed is the pick.
  Cursor* cur = cursors_.data();
  int n = 0;
  Pick p;
  int favCls = -1;
  forEachClass([&](int cls, KeyClass& c) {
    if (favCls < 0 || c.items.front().key < p.favouriteKey) {
      favCls = cls;
      p.favouriteKey = c.items.front().key;
    }
    if (floorOf(cls) > now || classMinTerm(c) > now) return;
    cur[n++] = Cursor{c.items.data(), c.items.data() + c.items.size()};
  });
  if (favCls < 0) return p;
  p.favouriteAt = std::max(floorOf(favCls),
                           classes_[static_cast<std::size_t>(favCls)].items.front().term);
  while (n > 0) {
    int best = 0;
    for (int i = 1; i < n; ++i)
      if (cur[i].at->key < cur[best].at->key) best = i;
    ++candidatesEvaluated_;
    if (cur[best].at->term <= now) {
      p.issuableKey = cur[best].at->key;
      p.issuable = cur[best].at->slot;
      break;
    }
    if (++cur[best].at == cur[best].end) cur[best] = cur[--n];
  }
  return p;
}

#ifndef NDEBUG
void MemoryController::checkRecords(bool servingReads, bool servingWrites, Tick now) {
  // Reference open-row users, from scratch over the served queues.
  std::unordered_map<int, RowUsers> users;
  bool first = true;
  std::uint64_t lastId = 0;
  Tick lastArrival = 0;
  std::vector<std::vector<KeyClass::Entry>> want(classes_.size());
  forEachServed(servingReads, servingWrites, [&](Record& r, int pos) {
    const Pending& p = pool_.ref(r.h);
    MB_CHECK(r.id == p.req.id && r.arrival == p.req.arrival && r.row == p.req.da.row &&
             r.ub == p.ub && r.rank == p.req.da.rank && r.thread == p.req.thread &&
             r.write == p.req.write);
    // The key's id field stands in for age: the served requests are one
    // queue, in id order, with arrivals that never decrease.
    MB_CHECK(first || (r.id > lastId && r.arrival >= lastArrival));
    first = false;
    lastId = r.id;
    lastArrival = r.arrival;
    const bool marked = pos >= 0 && scheduler_->requestMarked(pos);
    MB_CHECK(r.marked == marked);
    MB_CHECK(r.threadRank == (marked ? scheduler_->threadRank(r.thread) : 0));
    MB_CHECK(r.key == priorityKey(schedKind_, fieldsOf(r)));
    if (r.term != kTickNever)
      want[static_cast<std::size_t>(classOf(r))].push_back(
          KeyClass::Entry{r.key, r.term, slotOf(r.h)});
    if (channel_.openRow(r.ub) != r.row) return;
    RowUsers& u = users[r.ub];
    u.oldest = std::min(u.oldest, r.arrival);
    if (marked) u.oldestMarked = std::min(u.oldestMarked, r.arrival);
  });
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const KeyClass& c = classes_[i];
    std::sort(want[i].begin(), want[i].end(), KeyClass::byKey);
    MB_CHECK(c.items.size() == want[i].size());
    MB_CHECK(((classBits_[i >> 6] >> (i & 63)) & 1) == (c.items.empty() ? 0u : 1u));
    Tick minTerm = kTickNever;
    for (std::size_t j = 0; j < c.items.size(); ++j) {
      MB_CHECK(c.items[j].key == want[i][j].key && c.items[j].term == want[i][j].term &&
               c.items[j].slot == want[i][j].slot);
      minTerm = std::min(minTerm, c.items[j].term);
    }
    MB_CHECK(c.minStale ? minTerm >= c.minTerm : minTerm == c.minTerm);
  }
  // Each μbank's list links exactly the queued records on it (served or
  // not), through consistent back links.
  std::map<int, std::size_t> perUb;
  for (const auto* q : {&readQ_, &writeQ_})
    for (const ReqHandle h : *q) {
      MB_CHECK(rec(slotOf(h)).h == h);
      ++perUb[rec(slotOf(h)).ub];
    }
  for (const auto& [ub, n] : perUb) {
    std::size_t linked = 0;
    int prev = -1;
    for (int slot = ubHead_[static_cast<std::size_t>(ub)]; slot >= 0; slot = rec(slot).nextOnUb) {
      MB_CHECK(rec(slot).ub == ub && rec(slot).prevOnUb == prev);
      prev = slot;
      ++linked;
    }
    MB_CHECK(linked == n);
  }
  forEachServed(servingReads, servingWrites, [&](Record& r, int pos) {
    const std::int64_t open = channel_.openRow(r.ub);
    const DramCommand next = open == r.row ? (r.write ? DramCommand::Write : DramCommand::Read)
                             : open < 0    ? DramCommand::Act
                                           : DramCommand::Pre;
    MB_CHECK(r.next == next);
    bool blocked = false;
    const auto u = users.find(r.ub);
    if (next == DramCommand::Pre && u != users.end() && u->second.oldest < r.arrival) {
      const bool marked = pos >= 0 && scheduler_->requestMarked(pos);
      blocked = !marked || u->second.oldestMarked < r.arrival;
    }
    MB_CHECK(blocked == (r.term == kTickNever));
    if (!blocked)
      MB_CHECK(earliestOf(r) == channel_.earliest(next, pool_.ref(r.h).req.da, r.ub, now));
  });
}

void MemoryController::checkPick(const Pick& pick, bool servingReads, bool servingWrites,
                                 Tick now) {
  // The scan the key classes replace: every record that may issue, in
  // queue order, under the pairwise order with the scheduler's own marks
  // and ranks; a strict preference keeps the first of equals.
  constexpr Tick kHorizon = kTickNever / 2;
  int issuable = kNoSlot, favourite = kNoSlot;
  PriorityFields bestIssuable, bestOverall;
  forEachServed(servingReads, servingWrites, [&](Record& r, int pos) {
    if (r.term == kTickNever) return;
    PriorityFields f = fieldsOf(r);
    f.marked = pos >= 0 && scheduler_->requestMarked(pos);
    f.threadRank = f.marked ? scheduler_->threadRank(r.thread) : 0;
    const Tick e = earliestOf(r);
    if (e > kHorizon) return;
    if (favourite == kNoSlot || prefers(schedKind_, f, bestOverall)) {
      favourite = slotOf(r.h);
      bestOverall = f;
    }
    if (e > now) return;
    if (issuable == kNoSlot || prefers(schedKind_, f, bestIssuable)) {
      issuable = slotOf(r.h);
      bestIssuable = f;
    }
  });
  MB_CHECK(issuable == pick.issuable);
  MB_CHECK(issuable == kNoSlot || rec(issuable).key == pick.issuableKey);
  if (favourite != kNoSlot) {
    MB_CHECK(rec(favourite).key == pick.favouriteKey);
    MB_CHECK(earliestOf(rec(favourite)) == pick.favouriteAt);
  } else {
    MB_CHECK(pick.favouriteAt == kTickNever);
  }
}
#endif

void MemoryController::serveFlags(bool& reads, bool& writes) const {
  writes = drainingWrites_ || (readQ_.empty() && !writeQ_.empty());
  reads = !drainingWrites_ || readQ_.empty();
}

bool MemoryController::formBatchIfDue() {
  if (!scheduler_->formBatchIfDue()) return false;
  ++batchFormations_;
  markAllDirty();
  for (std::size_t i = 0; i < readQ_.size(); ++i) {
    Record& r = rec(slotOf(readQ_[i]));
    r.marked = scheduler_->requestMarked(static_cast<int>(i));
    r.threadRank = r.marked ? scheduler_->threadRank(r.thread) : 0;
    rekey(r);
  }
  return true;
}

void MemoryController::rerankThread(ThreadId thread) {
  const int rank = scheduler_->threadRank(thread);
  for (const ReqHandle h : readQ_) {
    Record& r = rec(slotOf(h));
    if (!r.marked || r.thread != thread) continue;
    const std::uint64_t old = r.key;
    r.threadRank = rank;
    rekey(r);
    if (r.term == kTickNever) continue;  // not in a class
    classErase(classOf(r), old, r.term);
    classInsert(r);
  }
}

void MemoryController::issueFor(int slot, Tick now) {
  const Record& r = rec(slot);
  const DramCommand cmd = r.next;
  const int ub = r.ub;
  Pending& p = pool_.get(r.h);
  const Tick earliest = channel_.earliest(cmd, p.req.da, ub, now);
  MB_CHECK_MSG(earliest <= now,
               "scheduler committed %s for %s before it is legal: earliest=%lldps "
               "now=%lldps",
               commandName(cmd), p.req.da.toString().c_str(),
               static_cast<long long>(earliest), static_cast<long long>(now));
  markDirty(ub);
  ++commandsIssued_;
  switch (cmd) {
    case DramCommand::Pre: {
      p.sawConflict = true;
      channel_.commitPre(p.req.da, ub, now);
      if (checker_) checker_->onCommand(DramCommand::Pre, p.req.da, now);
      if (cfg_.commandLog) cfg_.commandLog->onCommand(DramCommand::Pre, p.req.da, now, -1, -1);
      break;
    }
    case DramCommand::Act: {
      p.sawAct = true;
      channel_.commitAct(p.req.da, ub, now);
      meter_.onActivate(geom_.ubankRowBytes());
      if (checker_) checker_->onCommand(DramCommand::Act, p.req.da, now);
      if (cfg_.commandLog) cfg_.commandLog->onCommand(DramCommand::Act, p.req.da, now, -1, -1);
      break;
    }
    case DramCommand::Read:
    case DramCommand::Write: {
      const Tick dataEnd = channel_.commitCas(p.req.da, ub, p.req.write, now);
      meter_.onCas(geom_.lineBytes, geom_.ubanksPerBank());
      if (checker_) checker_->onCommand(cmd, p.req.da, now);
      if (cfg_.commandLog)
        cfg_.commandLog->onCommand(cmd, p.req.da, now, now + channel_.timing().tAA,
                                   dataEnd);
      onRequestServiced(slot, dataEnd);  // frees the arena slot; p and r are dead here
      break;
    }
    case DramCommand::Refresh:
      MB_CHECK(false && "refresh is not a per-request command");
  }
}

void MemoryController::onRequestServiced(int slot, Tick dataEnd) {
  const ReqHandle h = rec(slot).h;
  Pending& p = pool_.get(h);
  const std::int64_t flat = p.flat;
  // Row-locality classification for this request.
  if (p.sawConflict) {
    rowConflicts_.inc();
  } else if (p.sawAct) {
    rowMisses_.inc();
  } else {
    rowHits_.inc();
  }
  policy_->onAccess(flat, !p.sawAct && !p.sawConflict);

  if (!p.req.write) {
    readLatencyNs_.add(toNs(dataEnd - p.req.arrival));
    if (p.req.onComplete) {
      scheduleCompletion(std::move(p.req.onComplete), dataEnd, p.req.addr,
                         p.req.core);
    }
  }

  const ThreadId thread = p.req.thread;
  const core::DramAddress da = p.req.da;
  const int ub = p.ub;

  // Remove from its key class, its μbank's list and its queue, then release
  // the slot; the handle is stale from here on.
  const Record& r = rec(slot);
  const bool rerank = r.marked;
  if (r.term != kTickNever) classErase(classOf(r), r.key, r.term);
  unlinkRecord(r);
  if (!r.write) {
    const auto at = std::find(readQ_.begin(), readQ_.end(), h);
    MB_DCHECK(at != readQ_.end());
    scheduler_->onDequeue(static_cast<int>(at - readQ_.begin()), r.id);
    readQ_.erase(at);
    // The thread's rank improved: its other marked reads move up.
    if (rerank) rerankThread(thread);
  } else {
    const auto at = std::find(writeQ_.begin(), writeQ_.end(), h);
    MB_DCHECK(at != writeQ_.end());
    writeQ_.erase(at);
    if (static_cast<int>(writeQ_.size()) <= cfg_.writeLowWatermark)
      drainingWrites_ = false;
  }
  --queuedOnUb_[static_cast<std::size_t>(ub)];
  markDirty(ub);
  pool_.free(h);
  refillVisibleWindow();
  queueOcc_.update(eq_.now(), static_cast<double>(readQ_.size() + overflowQ_.size()));

  // Page management: if no queued work remains for this μbank, make a
  // speculative decision; otherwise the queue itself dictates the action
  // (the conventional controllers of §V inspect pending requests).
  const bool pendingSameUbank = queuedOnUb_[static_cast<std::size_t>(ub)] > 0;
#ifndef NDEBUG
  auto onUbank = [&](ReqHandle q) { return pool_.ref(q).ub == ub; };
  MB_CHECK(pendingSameUbank ==
           (std::any_of(readQ_.begin(), readQ_.end(), onUbank) ||
            std::any_of(overflowQ_.begin(), overflowQ_.end(), onUbank) ||
            std::any_of(writeQ_.begin(), writeQ_.end(), onUbank)));
#endif
  if (!pendingSameUbank) maybeSpeculate(da, flat, ub, thread);
}

void MemoryController::maybeSpeculate(const core::DramAddress& da,
                                      std::int64_t flat, int ub,
                                      ThreadId thread) {
  if (!channel_.rowOpen(ub)) return;
  const core::PageDecision decision = policy_->decide(flat, thread);
  switch (decision) {
    case core::PageDecision::KeepOpen:
      break;  // nothing to do: the row stays in the sense amplifiers
    case core::PageDecision::Close:
      pendingCloses_[flat] = da;
      break;
    case core::PageDecision::Lazy:
      channel_.markLazy(ub, channel_.earliestPre(da, ub, eq_.now()));
      break;
  }
  if (decision != core::PageDecision::Lazy) {
    SpecSlot& slot = speculations_[static_cast<std::size_t>(ub)];
    if (!slot.live) {
      slot.live = true;
      ++liveSpeculations_;
    }
    slot.s = Speculation{decision, channel_.openRow(ub), thread};
  }
}

void MemoryController::refillVisibleWindow() {
  while (static_cast<int>(readQ_.size()) < cfg_.queueDepth && !overflowQ_.empty()) {
    const ReqHandle h = overflowQ_.front();
    overflowQ_.pop_front();
    scheduler_->onEnqueue(pool_.get(h).req);
    readQ_.push_back(h);
    markDirty(placeRecord(h).ub);
  }
}

void MemoryController::scheduleKick(Tick at) {
  if (at >= nextKickAt_) return;
  nextKickAt_ = at;
  armKick(at);
}

void MemoryController::armKick(Tick at) {
  // At most one outstanding wake-up event per tick: if one already exists it
  // will fire first among this tick's kick events anyway (earlier sequence)
  // and perform the work; a duplicate would be a guaranteed no-op. Keeping
  // the set deduplicated lets a checkpoint reify it exactly.
  const auto it = std::lower_bound(
      kickEvents_.begin(), kickEvents_.end(), at,
      [](const KickEvent& e, Tick t) { return e.at < t; });
  if (it != kickEvents_.end() && it->at == at) return;
  const EventStamp stamp = eq_.scheduleAt(at, [this, at] { onKickEventFired(at); });
  kickEvents_.insert(it, KickEvent{at, stamp});
}

void MemoryController::onKickEventFired(Tick at) {
  eraseKickEvent(at);
  if (nextKickAt_ == at) {
    nextKickAt_ = kTickNever;
    kick(/*woken=*/true);
  }
}

void MemoryController::eraseKickEvent(Tick at) {
  const auto it = std::lower_bound(
      kickEvents_.begin(), kickEvents_.end(), at,
      [](const KickEvent& e, Tick t) { return e.at < t; });
  MB_DCHECK(it != kickEvents_.end() && it->at == at);
  if (it != kickEvents_.end() && it->at == at) kickEvents_.erase(it);
}

int MemoryController::allocCompletionSlot() {
  if (freeCompletionSlot_ >= 0) {
    const int slot = freeCompletionSlot_;
    freeCompletionSlot_ = completionSlots_[static_cast<size_t>(slot)].nextFree;
    return slot;
  }
  completionSlots_.emplace_back();
  return static_cast<int>(completionSlots_.size() - 1);
}

void MemoryController::scheduleCompletion(CompletionFn cb, Tick due,
                                          std::uint64_t addr, CoreId core) {
  const std::uint64_t token = nextCompletionToken_++;
  const int slot = allocCompletionSlot();
  auto& s = completionSlots_[static_cast<size_t>(slot)];
  s.live = true;
  s.token = token;
  s.c.due = due;
  s.c.addr = addr;
  s.c.core = core;
  // The channel-local event releases the slot at `due`; in mailbox mode the
  // data delivery itself travels as a cross-shard message stamped with the
  // *next* counter of the same execution, so the (release, delivery) pair
  // occupies two consecutive positions in this queue's ordering — nothing
  // can ever sort between them, which keeps the single-queue execution
  // order identical to running both halves as one event.
  s.c.stamp = eq_.scheduleAt(due, [this, slot, token] { fireCompletion(slot, token); });
  ++liveCompletions_;
  if (mailbox_ != nullptr) {
    s.c.cb = nullptr;
    s.c.msgStamp = eq_.issueStamp();
    MB_DCHECK(s.c.msgStamp.counter == s.c.stamp.counter + 1);
    mailbox_->postCompletion(id_, due, s.c.msgStamp, std::move(cb));
  } else {
    s.c.cb = std::move(cb);
  }
}

void MemoryController::fireCompletion(int slot, std::uint64_t token) {
  auto& s = completionSlots_[static_cast<size_t>(slot)];
  // The token pins the event to the slot's occupant at scheduling time: a
  // recycled slot with a different token would mean an event outlived its
  // completion, which the free-list discipline forbids.
  MB_CHECK(s.live && s.token == token);
  auto cb = std::move(s.c.cb);
  const Tick due = s.c.due;
  // Free the slot before running the callback: it may re-enter
  // scheduleCompletion (forwarded read) and legitimately reuse this slot
  // under a fresh token.
  s.live = false;
  s.c.cb = nullptr;
  s.nextFree = freeCompletionSlot_;
  freeCompletionSlot_ = slot;
  --liveCompletions_;
  // Empty in mailbox mode: the delivery already left through the mailbox at
  // scheduling time and this event only recycles the slot.
  if (cb) cb(due);
}

void MemoryController::kick(bool woken) {
  const Tick now = eq_.now();
  lastKickTick_ = now;
  ++kicks_;
  {
    // A kick that can change nothing is skipped: no record is stale, the
    // serve flags and the batch are as the last pass left them, no refresh
    // is due, and the wake-up that pass armed (the earliest tick a record
    // or idle close may issue, or the gate's favourite) is still ahead. A
    // pass now would re-derive the same prices and arm the same wake-up.
    bool reads = false, writes = false;
    serveFlags(reads, writes);
    if (!woken && !allDirty_ && dirtyUbs_.empty() && reads == servedReads_ &&
        writes == servedWrites_ && channel_.nextRefreshDue() > now && now < nextKickAt_ &&
        !scheduler_->wouldFormBatch()) {
      ++noopKicks_;
      return;
    }
  }
  // A refresh closes rows and raises activation bounds across a rank or a
  // bank; dirtying everything keeps that rare case simple.
  if (channel_.nextRefreshDue() <= now &&
      channel_.maybeRefresh(now, [this, now](int rank, int bank) {
        meter_.onRefresh(bank < 0 ? 1.0 : 1.0 / geom_.banksPerRank);
        if (checker_) checker_->onRankRefresh(id_, rank, bank);
        if (cfg_.commandLog) cfg_.commandLog->onRefresh(id_, rank, bank, now);
      }))
    markAllDirty();

  for (;;) {
    ++arbPasses_;
    bool reads = false, writes = false;
    serveFlags(reads, writes);
    refreshRecords(reads, writes);
    channel_.commandFloors(now, floors_);
#ifndef NDEBUG
    checkRecords(reads, writes, now);
#endif
    Tick minFuture = kTickNever;
    if (channel_.cmdBusFreeAt() > now) {
      // Wake-only pass: every earliest* is at or after the bus-free tick,
      // so nothing can issue and the pass only needs the wake tick. The
      // batch still forms at the point a pick would have formed it.
      ++wakeOnlyPasses_;
      minFuture = classWake();
      MB_DCHECK(minFuture > now);
      formBatchIfDue();
    } else {
      // A batch formed here orders this pick by the new marks, while the
      // guard verdicts (class membership) stay the ones computed under the
      // old marks until the next refresh.
      if (formBatchIfDue()) rebuildClasses(reads, writes);
      const Pick pick = pickByKey(now);
#ifndef NDEBUG
      checkPick(pick, reads, writes, now);
#endif
      if (pick.issuable != kNoSlot) {
        // Priority gate: if the scheduler's overall favourite (ignoring
        // issue readiness) is a different, imminently-ready command, hold
        // the bus for it. Without this, a stream of back-to-back row hits
        // can starve a higher-priority precharge forever: every hit CAS
        // pushes the victim's tRTP window just past "now" again (priority
        // inversion).
        if (pick.favouriteKey != pick.issuableKey) {
          ++candidatesEvaluated_;
          const Tick bestAt = pick.favouriteAt;
          if (bestAt > now && bestAt - now <= 2 * channel_.timing().tCCD) {
            scheduleKick(bestAt);
            break;
          }
        }
        issueFor(pick.issuable, now);
        // The command bus is now busy for tCMD, so the next pass is
        // wake-only.
        continue;
      }
      minFuture = classWake();
    }

    // No request command issuable now: opportunistically retire one idle
    // precharge requested by the page policy. Stale entries (the row closed
    // meanwhile) are dropped on the way.
    bool issuedClose = false;
    for (auto it = pendingCloses_.begin(); it != pendingCloses_.end();) {
      const auto& da = it->second;
      const int ub = channel_.ubankIndex(da);
      if (!channel_.rowOpen(ub)) {
        it = pendingCloses_.erase(it);
        continue;
      }
      const Tick e = channel_.earliestPre(da, ub, now);
      if (e <= now) {
        channel_.commitPre(da, ub, now);
        markDirty(ub);
        ++commandsIssued_;
        if (checker_) checker_->onCommand(DramCommand::Pre, da, now);
        if (cfg_.commandLog) cfg_.commandLog->onCommand(DramCommand::Pre, da, now, -1, -1);
        pendingCloses_.erase(it);
        issuedClose = true;
        break;
      }
      minFuture = std::min(minFuture, e);
      ++it;
    }
    if (issuedClose) continue;

    const Tick refreshDue = channel_.nextRefreshDue();
    Tick wake = std::min(minFuture, refreshDue <= now ? now + channel_.timing().tCMD
                                                      : refreshDue);
    if (outstanding() == 0 && pendingCloses_.empty()) {
      // Fully idle: no need to wake for refresh bookkeeping; the next
      // enqueue will catch up on due refreshes.
      wake = minFuture;
    }
    if (wake != kTickNever && wake > now) scheduleKick(wake);
    break;
  }
}

ControllerStats MemoryController::stats() const {
  ControllerStats s;
  s.reads = reads_.value();
  s.writes = writes_.value();
  s.rowHits = rowHits_.value();
  s.rowMisses = rowMisses_.value();
  s.rowConflicts = rowConflicts_.value();
  s.forwardedReads = forwarded_.value();
  s.specDecisions = specDecisions_.value();
  s.specCorrect = specCorrect_.value();
  s.avgReadLatencyNs = readLatencyNs_.mean();
  s.avgQueueOccupancy = queueOcc_.average(finalizedAt_ > 0 ? finalizedAt_ : eq_.now());
  s.dataBusUtilization =
      channel_.dataBusUtilization(finalizedAt_ > 0 ? finalizedAt_ : eq_.now());
  s.activations = meter_.activations();
  s.refreshes = meter_.refreshes();
  s.kicks = kicks_;
  s.arbPasses = arbPasses_;
  s.wakeOnlyPasses = wakeOnlyPasses_;
  s.batchFormations = batchFormations_;
  s.candidatesEvaluated = candidatesEvaluated_;
  s.candidateRefreshes = candidateRefreshes_;
  s.preBlockVisits = preBlockVisits_;
  s.noopKicks = noopKicks_;
  s.commandsIssued = commandsIssued_;
  return s;
}

void MemoryController::finalize(Tick simEnd) {
  finalizedAt_ = simEnd;
  meter_.finalizeStatic(simEnd, geom_.ranksPerChannel);
}

template <class Ar>
void MemoryController::ioPending(Ar& ar, ReqHandle& h) {
  if constexpr (Ar::kLoading) h = pool_.alloc(Pending{});
  Pending& p = pool_.get(h);
  ar.u64(p.req.id);
  ar.u64(p.req.addr);
  ar.b(p.req.write);
  ar.i32Index(p.req.core, coreCount);
  ar.i32(p.req.thread);
  ar.i64(p.req.arrival);
  ar.b(p.sawConflict);
  ar.b(p.sawAct);
  bool hasCb = static_cast<bool>(p.req.onComplete);
  ar.b(hasCb);
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return;
    p.req.da = map_.decompose(p.req.addr);
    p.flat = p.req.da.flatUbank(geom_);
    p.ub = channel_.ubankIndex(p.req.da);
    if (hasCb) {
      if (!completionFactory) return ar.fail();
      p.req.onComplete = completionFactory(p.req.addr, p.req.core);
    }
  }
}

template <class Ar>
void MemoryController::io(Ar& ar) {
  ar.sub(channel_);
  ar.sub(meter_);
  ar.sub(*scheduler_);
  ar.sub(*policy_);
  bool hasChecker = checker_.has_value();
  ar.b(hasChecker);
  if (hasChecker != checker_.has_value()) return ar.fail();
  if (checker_) ar.sub(*checker_);

  if constexpr (Ar::kLoading) pool_.clear();  // the queues are rebuilt below
  auto ioQueue = [&](auto& q) {
    std::uint64_t n = q.size();
    ar.u64Count(n, 28);
    if constexpr (Ar::kLoading) q.assign(n, {});
    for (ReqHandle& h : q) ioPending(ar, h);
  };
  ioQueue(readQ_);
  ioQueue(overflowQ_);
  ioQueue(writeQ_);
  ar.b(drainingWrites_);
  if constexpr (Ar::kLoading) {
    if (!ar.ok()) return;
    // The scheduler addresses read-window requests by position.
    std::vector<std::uint64_t> readIds;
    for (const ReqHandle h : readQ_) readIds.push_back(pool_.ref(h).req.id);
    if (!scheduler_->tracksReadWindow(readIds)) return ar.fail();
    recs_.clear();
    ubHead_.assign(static_cast<std::size_t>(channel_.ubankCount()), -1);
    for (std::size_t i = 0; i < readQ_.size(); ++i) {
      Record& r = placeRecord(readQ_[i]);
      r.marked = scheduler_->requestMarked(static_cast<int>(i));
      r.threadRank = r.marked ? scheduler_->threadRank(r.thread) : 0;
    }
    for (const ReqHandle h : writeQ_) placeRecord(h);
    queuedOnUb_.assign(static_cast<std::size_t>(channel_.ubankCount()), 0);
    for (const auto* q : {&readQ_, &writeQ_})
      for (const ReqHandle h : *q) ++queuedOnUb_[static_cast<std::size_t>(pool_.ref(h).ub)];
    for (const ReqHandle o : overflowQ_) ++queuedOnUb_[static_cast<std::size_t>(pool_.ref(o).ub)];
    markAllDirty();
  }

  // The map and slot table below are walked in ascending key order through
  // a key list: saving fills it from the table, loading sizes it from the
  // count and rebuilds each entry under the key it reads.
  std::uint64_t nCloses = pendingCloses_.size();
  ar.u64Count(nCloses, 32);
  std::vector<std::int64_t> closeKeys;
  for (const auto& [flat, da] : pendingCloses_) closeKeys.push_back(flat);
  if constexpr (Ar::kLoading) {
    pendingCloses_.clear();
    closeKeys.assign(nCloses, 0);
  }
  const dram::Geometry& g = channel_.geometry();
  for (auto& flat : closeKeys) {
    ar.i64(flat);
    core::DramAddress& da = pendingCloses_[flat];
    ar.i32Index(da.channel, g.channels);
    ar.i32Index(da.rank, g.ranksPerChannel);
    ar.i32Index(da.bank, g.banksPerRank);
    ar.i32Index(da.ubank, g.ubanksPerBank());
    ar.i64(da.row);
    ar.i64(da.column);
  }
  // Dense slots walked in index order with flat-μbank keys: identical
  // bytes to the sorted-map layout this table replaces (flat id is
  // channelBase + ubankIndex for a fixed channel, so index order IS
  // ascending key order).
  const std::int64_t channelBase =
      static_cast<std::int64_t>(id_) * channel_.ubankCount();
  std::uint64_t nSpecs = static_cast<std::uint64_t>(liveSpeculations_);
  ar.u64Count(nSpecs, 21);
  std::vector<std::int64_t> specKeys;
  for (std::size_t ub = 0; ub < speculations_.size(); ++ub)
    if (speculations_[ub].live) specKeys.push_back(channelBase + static_cast<std::int64_t>(ub));
  if constexpr (Ar::kLoading) {
    speculations_.assign(static_cast<std::size_t>(channel_.ubankCount()), SpecSlot{});
    liveSpeculations_ = 0;
    specKeys.assign(nSpecs, 0);
  }
  for (auto& flat : specKeys) {
    ar.i64(flat);
    const std::int64_t ub = flat - channelBase;
    // Hostile-snapshot guard: the key must be one of this channel's μbanks.
    if (ub < 0 || ub >= channel_.ubankCount()) return ar.fail();
    SpecSlot& slot = speculations_[static_cast<std::size_t>(ub)];
    if constexpr (Ar::kLoading) {
      if (!slot.live) ++liveSpeculations_;
      slot.live = true;
    }
    ar.u8Enum(slot.s.decision, core::PageDecision::Lazy);
    ar.i64(slot.s.row);
    ar.i32(slot.s.thread);
  }

  ar.i64(nextKickAt_);
  ar.i64(lastKickTick_);
  std::uint64_t nKicks = kickEvents_.size();
  ar.u64Count(nKicks, 16);
  if constexpr (Ar::kLoading) kickEvents_.assign(nKicks, KickEvent{});
  for (std::size_t i = 0; i < kickEvents_.size(); ++i) {
    ar.i64(kickEvents_[i].at);
    ckpt::ioStamp(ar, kickEvents_[i].stamp);
    // The on-disk set is written sorted and deduplicated; anything else is
    // a corrupt or hand-edited snapshot, and accepting it would break the
    // sorted-vector invariant armKick/eraseKickEvent rely on.
    if (i > 0 && kickEvents_[i].at <= kickEvents_[i - 1].at) return ar.fail();
  }
  ar.u64(nextRequestId_);
  ar.u64(nextCompletionToken_);
  // Live pool slots in ascending-token order — byte-identical to the
  // std::map<token, ...> layout this pool replaced. Loading packs them into
  // slots 0..n-1 with an empty free list.
  std::vector<CompletionSlot*> live;
  for (auto& s : completionSlots_)
    if (s.live) live.push_back(&s);
  std::sort(live.begin(), live.end(),
            [](const CompletionSlot* a, const CompletionSlot* b) {
              return a->token < b->token;
            });
  std::uint64_t nCompl = liveCompletions_;
  ar.u64Count(nCompl, 36);
  if constexpr (Ar::kLoading) {
    completionSlots_.clear();
    completionSlots_.resize(nCompl);
    freeCompletionSlot_ = -1;
    liveCompletions_ = nCompl;
    live.clear();
    for (auto& s : completionSlots_) live.push_back(&s);
  }
  for (std::size_t i = 0; i < live.size(); ++i) {
    CompletionSlot& s = *live[i];
    ar.u64(s.token);
    if (i > 0 && s.token <= live[i - 1]->token) return ar.fail();
    ckpt::ioStamp(ar, s.c.stamp);
    ckpt::ioStamp(ar, s.c.msgStamp);
    ar.i64(s.c.due);
    ar.u64(s.c.addr);
    ar.i32Index(s.c.core, coreCount);
    if constexpr (Ar::kLoading) {
      if (!ar.ok()) return;
      if (!completionFactory) return ar.fail();
      s.live = true;
      // In mailbox mode the callback travels as a re-posted message (see
      // reschedule); the slot only holds it when completions run locally.
      if (mailbox_ == nullptr) s.c.cb = completionFactory(s.c.addr, s.c.core);
    }
  }

  ar.sub(reads_);
  ar.sub(writes_);
  ar.sub(rowHits_);
  ar.sub(rowMisses_);
  ar.sub(rowConflicts_);
  ar.sub(forwarded_);
  ar.sub(specDecisions_);
  ar.sub(specCorrect_);
  ar.sub(readLatencyNs_);
  ar.sub(queueOcc_);
  ar.i64(finalizedAt_);
}
MB_SNAP_IO_INSTANTIATE(MemoryController);

void MemoryController::reschedule(ckpt::EventRestorer& er) {
  for (std::size_t i = 0; i < kickEvents_.size(); ++i) {
    er.add([this, i] {
      const Tick t = kickEvents_[i].at;
      eq_.scheduleStamped(t, kickEvents_[i].stamp,
                          [this, t] { onKickEventFired(t); });
    });
  }
  for (std::size_t i = 0; i < completionSlots_.size(); ++i) {
    auto& s = completionSlots_[i];
    if (!s.live) continue;
    const int slot = static_cast<int>(i);
    const std::uint64_t tok = s.token;
    er.add([this, slot, tok] {
      auto& sl = completionSlots_[static_cast<size_t>(slot)];
      eq_.scheduleStamped(sl.c.due, sl.c.stamp,
                          [this, slot, tok] { fireCompletion(slot, tok); });
      // Re-post the in-flight delivery message under its original stamp;
      // the live slot is the proof the message had not yet fired at capture
      // time (delivery and release share a due tick and fire in the same
      // window).
      if (mailbox_ != nullptr) {
        mailbox_->postCompletion(id_, sl.c.due, sl.c.msgStamp,
                                 completionFactory(sl.c.addr, sl.c.core));
      }
    });
  }
}

}  // namespace mb::mc
