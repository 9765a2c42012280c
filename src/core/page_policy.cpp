#include "core/page_policy.hpp"

#include "common/check.hpp"

namespace mb::core {

std::string policyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Open: return "open";
    case PolicyKind::Close: return "close";
    case PolicyKind::MinimalistOpen: return "minimalist-open";
    case PolicyKind::LocalBimodal: return "local";
    case PolicyKind::GlobalBimodal: return "global";
    case PolicyKind::Tournament: return "tournament";
    case PolicyKind::Perfect: return "perfect";
  }
  return "unknown";
}

std::unique_ptr<PagePolicy> makePagePolicy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Open: return std::make_unique<OpenPagePolicy>();
    case PolicyKind::Close: return std::make_unique<ClosePagePolicy>();
    case PolicyKind::MinimalistOpen: return std::make_unique<MinimalistOpenPolicy>();
    case PolicyKind::LocalBimodal: return std::make_unique<LocalBimodalPolicy>();
    case PolicyKind::GlobalBimodal: return std::make_unique<GlobalBimodalPolicy>();
    case PolicyKind::Tournament: return std::make_unique<TournamentPolicy>();
    case PolicyKind::Perfect: return std::make_unique<PerfectPolicy>();
  }
  MB_CHECK(false && "unknown policy kind");
  return nullptr;
}

bool TournamentPolicy::candidatePredictsOpen(int candidate, std::int64_t flatUbank,
                                             ThreadId thread) {
  switch (candidate) {
    case 0: return true;   // static open
    case 1: return false;  // static close
    case 2: return local_.decide(flatUbank, thread) == PageDecision::KeepOpen;
    case 3: return global_.decide(flatUbank, thread) == PageDecision::KeepOpen;
    default: MB_CHECK(false); return true;
  }
}

int TournamentPolicy::bestCandidate(std::int64_t flatUbank) const {
  auto it = scores_.find(flatUbank);
  if (it == scores_.end()) return 0;
  int best = 0;
  for (int c = 1; c < kNumCandidates; ++c)
    if (it->second.score[c] > it->second.score[best]) best = c;
  return best;
}

PageDecision TournamentPolicy::decide(std::int64_t flatUbank, ThreadId thread) {
  const int best = bestCandidate(flatUbank);
  return candidatePredictsOpen(best, flatUbank, thread) ? PageDecision::KeepOpen
                                                        : PageDecision::Close;
}

void TournamentPolicy::observeOutcome(std::int64_t flatUbank, ThreadId thread,
                                      bool sameRow) {
  auto& s = scores_[flatUbank];
  for (int c = 0; c < kNumCandidates; ++c) {
    const bool predictedOpen = candidatePredictsOpen(c, flatUbank, thread);
    const bool correct = predictedOpen == sameRow;
    if (correct) {
      if (s.score[c] < 7) ++s.score[c];
    } else {
      if (s.score[c] > 0) --s.score[c];
    }
  }
  // Train the dynamic candidates after scoring them so the score reflects
  // the prediction they actually made for this outcome.
  local_.observeOutcome(flatUbank, thread, sameRow);
  global_.observeOutcome(flatUbank, thread, sameRow);
}

void TournamentPolicy::onAccess(std::int64_t flatUbank, bool rowHit) {
  local_.onAccess(flatUbank, rowHit);
  global_.onAccess(flatUbank, rowHit);
}


template <class Ar>
void TournamentPolicy::io(Ar& ar) {
  ar.mapSorted(scores_, 8 + 4 * kNumCandidates, [&](Scores& sc) {
    for (int c = 0; c < kNumCandidates; ++c) ar.i32(sc.score[c]);
  });
  ar.sub(local_);
  ar.sub(global_);
}
MB_SNAP_IO_INSTANTIATE(TournamentPolicy);

}  // namespace mb::core
