// ShardedEngine window mechanics, driven by a scripted two-channel fixture
// (no controllers, no cores — bare queues and hand-posted messages):
//
//  * completions posted AT the lookahead horizon and one tick AFTER it are
//    buffered and merged into the CPU queue in stamp order, whichever
//    channel posted first — and over seeded random scripts, in full
//    (due, stamp) key order whatever order they were posted in;
//  * a completion one tick BEFORE the horizon — i.e. a lookahead larger than
//    the real channel → CPU latency — is an MB_CHECK failure;
//  * buffered messages alone set the next window's start, and the cached
//    minimum due follows a partial delivery;
//  * CPU → channel admissions: zero latency runs in the posting window,
//    later ones wait in the mailbox and fire in stamp order;
//  * the stop predicate truncates channels at the stopping event's key, the
//    checkpoint cut lands on a quiescent window boundary, and the buffered
//    admissions round-trip through the ENG section (save/load);
//  * per-channel command buffers merge by executing-event key;
//  * a window where channels have zero events (pure CPU work) drains
//    cleanly, as does an entirely empty channel side; the event cap and a
//    non-positive lookahead are MB_CHECK failures.
//
// Logs are split per queue (cpuLog for the CPU queue, chLog[c] for channel
// c), so the CPU merge order is exactly what cpuLog records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/serialize.hpp"
#include "common/check.hpp"
#include "sim/shard.hpp"
#include "snapshot_forge.hpp"

namespace mb::sim {
namespace {

constexpr Tick kLookahead = 10;

constexpr int kCores = 2;

/// Two channel queues + one CPU queue wired to a ShardedEngine.
struct Fixture {
  explicit Fixture(std::uint64_t maxEvents = ShardEngineOptions{}.maxEvents) {
    cpu.setShardId(2);
    ch[0] = std::make_unique<EventQueue>();
    ch[1] = std::make_unique<EventQueue>();
    ch[0]->setShardId(0);
    ch[1]->setShardId(1);
    ShardEngineOptions opts;
    opts.lookahead = kLookahead;
    opts.maxEvents = maxEvents;
    engine = std::make_unique<ShardedEngine>(
        cpu, std::vector<EventQueue*>{ch[0].get(), ch[1].get()}, opts);
    // Admissions land in the destination channel's log as
    // "enq<line><r|w>@<channel clock>"; they come from cores 0 and 1.
    engine->setDeliverEnqueue(
        [this](ChannelId c, Tick, std::uint64_t lineAddr, CoreId, bool isWrite) {
          chLog[c].push_back("enq" + std::to_string(lineAddr) +
                             (isWrite ? "w" : "r") + "@" +
                             std::to_string(ch[c]->now()));
        },
        kCores);
  }

  /// Channel event at `when` that only logs "tag@when".
  void channelEvent(int c, Tick when, const std::string& tag) {
    ch[c]->scheduleAt(when, [this, c, tag] {
      chLog[c].push_back(tag + "@" + std::to_string(ch[c]->now()));
    });
  }

  /// CPU event at `when` that admits a read of `lineAddr` into channel `to`,
  /// due `due`.
  void cpuAdmits(Tick when, int to, Tick due, std::uint64_t lineAddr) {
    cpu.scheduleAt(when, [this, to, due, lineAddr] {
      engine->postEnqueue(to, due, cpu.issueStamp(), lineAddr, 0, false);
    });
  }

  /// Channel event at `when` that posts a completion due `due`. The channel
  /// log records the post; the CPU log records the delivery.
  void channelPostsCompletion(int c, Tick when, Tick due, const std::string& tag) {
    EventQueue& q = *ch[c];
    ch[c]->scheduleAt(when, [this, c, due, tag, &q] {
      chLog[c].push_back("post." + tag + "@" + std::to_string(q.now()));
      engine->postCompletion(c, due, q.issueStamp(),
                             mc::CompletionFn([this, tag](Tick at) {
                               cpuLog.push_back("done." + tag + "@" +
                                                std::to_string(at));
                             }));
    });
  }

  void run() {
    engine->run(-1, [] {}, [] { return false; });
  }

  EventQueue cpu;
  std::unique_ptr<EventQueue> ch[2];
  std::unique_ptr<ShardedEngine> engine;
  std::vector<std::string> cpuLog;
  std::vector<std::string> chLog[2];
};

TEST(ShardWindow, CompletionsAtAndPastHorizonMergeInStampOrder) {
  Fixture f;
  // Window 1 is [0, 10): both channels fire at ticks 0..2 and post
  // completions landing exactly ON the horizon (due 10) and past it
  // (due 11, 25). Equal-due completions from both channels probe the
  // cross-channel merge tiebreak.
  f.channelPostsCompletion(0, 0, 10, "a0");   // at horizon, channel 0
  f.channelPostsCompletion(1, 0, 10, "a1");   // at horizon, channel 1: same due
  f.channelPostsCompletion(1, 1, 11, "b1");
  f.channelPostsCompletion(0, 2, 25, "c0");   // beyond the NEXT window too
  // Channel 0 runs first, so x0 is buffered before y1, but y1 was scheduled
  // earlier (tick 3 vs 4) and must be delivered first at the shared due 12.
  f.channelPostsCompletion(0, 4, 12, "x0");
  f.channelPostsCompletion(1, 3, 12, "y1");
  f.run();
  // CPU deliveries in stamp order: equal due 10 → equal counters → channel
  // index breaks the tie, so a0 strictly precedes a1 by construction.
  const std::vector<std::string> cpuExpect = {"done.a0@10", "done.a1@10",
                                              "done.b1@11", "done.y1@12",
                                              "done.x0@12", "done.c0@25"};
  EXPECT_EQ(f.cpuLog, cpuExpect);
  EXPECT_EQ(f.chLog[0],
            (std::vector<std::string>{"post.a0@0", "post.c0@2", "post.x0@4"}));
  EXPECT_EQ(f.chLog[1],
            (std::vector<std::string>{"post.a1@0", "post.b1@1", "post.y1@3"}));
}

TEST(ShardWindow, CompletionOneTickInsideHorizonIsCaughtInline) {
  ScopedCheckTrap trap;
  try {
    Fixture f;
    f.channelPostsCompletion(0, 0, kLookahead - 1, "bad");  // due 9 < t1 10
    f.run();
    FAIL() << "lookahead violation not detected";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("lookahead"), std::string::npos) << e.message;
  }
}

TEST(ShardWindow, PureCpuWindowsDrainWithIdleChannels) {
  Fixture f;
  // CPU-only work spanning several windows; channels never see an event.
  for (Tick t : {Tick{0}, Tick{7}, Tick{23}})
    f.cpu.scheduleAt(t, [&f, t] {
      f.cpuLog.push_back("tick@" + std::to_string(t));
    });
  f.run();
  const std::vector<std::string> expect = {"tick@0", "tick@7", "tick@23"};
  EXPECT_EQ(f.cpuLog, expect);
  EXPECT_EQ(f.engine->processedCount(), 3u);
  EXPECT_EQ(f.engine->maxNow(), 23);
}

TEST(ShardWindow, ZeroEventsAnywhereReturnsImmediately) {
  Fixture f;
  f.run();  // minNextTime() == kTickNever on the first window
  EXPECT_TRUE(f.cpuLog.empty());
  EXPECT_EQ(f.engine->processedCount(), 0u);
}

/// splitmix64: seedable and stable across platforms, so a failing trial
/// reproduces by index.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TEST(ShardWindow, CompletionsDeliverInKeyOrderWhateverTheirPostOrder) {
  // Both channels post completions from random ticks with random dues past
  // the horizon, so every buffer holds keys out of order and deliveries
  // straddle several windows. The CPU must see them in (due, stamp) order.
  std::uint64_t rng = 0x5eedc0ffee0d10ull;  // fixed: the scripts are part of the test
  struct Posted {
    Tick due;
    EventStamp stamp;
    std::string tag;
  };
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Fixture f;
    std::vector<Posted> posted;
    for (int c = 0; c < 2; ++c) {
      for (int i = 0; i < 12; ++i) {
        const Tick when = static_cast<Tick>(splitmix64(rng) % 40);
        // A window never ends past when + kLookahead, so this is legal.
        const Tick due = when + kLookahead + static_cast<Tick>(splitmix64(rng) % 30);
        const std::string tag = std::to_string(c) + "." + std::to_string(i);
        EventQueue& q = *f.ch[c];
        q.scheduleAt(when, [&f, &q, &posted, c, due, tag] {
          const EventStamp st = q.issueStamp();
          posted.push_back(Posted{due, st, tag});
          f.engine->postCompletion(c, due, st, mc::CompletionFn([&f, tag](Tick at) {
                                     f.cpuLog.push_back(tag + "@" + std::to_string(at));
                                   }));
        });
      }
    }
    f.run();
    std::sort(posted.begin(), posted.end(), [](const Posted& a, const Posted& b) {
      return EventQueue::keyBefore(a.due, a.stamp, b.due, b.stamp);
    });
    std::vector<std::string> expect;
    for (const Posted& p : posted) expect.push_back(p.tag + "@" + std::to_string(p.due));
    ASSERT_EQ(expect.size(), 24u);
    EXPECT_EQ(f.cpuLog, expect);
  }
}

TEST(ShardWindow, LoneBufferedCompletionStartsTheNextWindow) {
  Fixture f;
  // Nothing is pending anywhere but the buffered message, so the engine must
  // jump straight to its due tick instead of draining.
  f.channelPostsCompletion(0, 0, 1000, "far");
  f.run();
  EXPECT_EQ(f.cpuLog, (std::vector<std::string>{"done.far@1000"}));
  EXPECT_EQ(f.engine->processedCount(), 2u);  // the post and the delivery
  EXPECT_EQ(f.engine->maxNow(), 1000);
}

TEST(ShardWindow, PartialDeliveryKeepsTheLaterBufferedMinimum) {
  Fixture f;
  // One channel event buffers three completions out of due order. Each
  // window delivers only what falls inside it; the cached minimum over what
  // stays buffered must then name the next due, or the later completions
  // would be lost (minimum too high) or never reached (minimum stale).
  EventQueue& q = *f.ch[0];
  q.scheduleAt(0, [&f, &q] {
    for (Tick due : {Tick{40}, Tick{10}, Tick{25}})
      f.engine->postCompletion(0, due, q.issueStamp(),
                               mc::CompletionFn([&f](Tick at) {
                                 f.cpuLog.push_back("done@" + std::to_string(at));
                               }));
  });
  f.cpu.scheduleAt(30, [&f] { f.cpuLog.push_back("cpu@30"); });
  f.run();
  EXPECT_EQ(f.cpuLog, (std::vector<std::string>{"done@10", "done@25", "cpu@30",
                                                "done@40"}));
}

TEST(ShardWindow, ZeroLatencyAdmissionRunsInThePostingWindow) {
  Fixture f;
  // The CPU admits a request due at its own tick. Channel 1 also has an
  // event later in the same window [5, 15): the admission must run before
  // it, which is only possible if the CPU phase precedes the channel phase
  // (delivering it a window later would schedule into channel 1's past).
  f.cpuAdmits(5, 1, 5, 64);
  f.channelEvent(1, 7, "later");
  f.run();
  EXPECT_EQ(f.chLog[1], (std::vector<std::string>{"enq64r@5", "later@7"}));
  EXPECT_TRUE(f.chLog[0].empty());
}

TEST(ShardWindow, AdmissionsWaitInTheMailboxAndFireInStampOrder) {
  Fixture f;
  f.cpu.scheduleAt(0, [&f] {
    const EventStamp first = f.cpu.issueStamp();
    const EventStamp second = f.cpu.issueStamp();
    // Both due 12 on channel 0, posted in reverse stamp order: the stamp,
    // not the post order, decides which fires first.
    f.engine->postEnqueue(0, 12, second, 128, 0, true);
    f.engine->postEnqueue(0, 12, first, 64, 0, false);
    f.engine->postEnqueue(0, 30, f.cpu.issueStamp(), 192, 0, false);
    f.engine->postEnqueue(1, 12, f.cpu.issueStamp(), 256, 1, false);
  });
  f.run();
  EXPECT_EQ(f.chLog[0],
            (std::vector<std::string>{"enq64r@12", "enq128w@12", "enq192r@30"}));
  EXPECT_EQ(f.chLog[1], (std::vector<std::string>{"enq256r@12"}));
  EXPECT_EQ(f.engine->maxNow(), 30);
}

TEST(ShardWindow, StopTruncatesChannelsAtTheStoppingEventKey) {
  Fixture f;
  bool stopped = false;
  f.cpu.scheduleAt(3, [&f, &stopped] {
    f.cpuLog.push_back("stop@3");
    stopped = true;
  });
  f.cpu.scheduleAt(5, [&f] { f.cpuLog.push_back("late@5"); });
  // All four channel events share the stop's window [1, 11); only those
  // ordered before the stopping event may fire.
  f.channelEvent(0, 1, "a");
  f.channelEvent(0, 4, "b");
  f.channelEvent(1, 2, "c");
  f.channelEvent(1, 8, "d");
  const auto stopFn = [&stopped] { return stopped; };
  f.engine->run(-1, [] {}, stopFn);
  EXPECT_EQ(f.cpuLog, (std::vector<std::string>{"stop@3"}));
  EXPECT_EQ(f.chLog[0], (std::vector<std::string>{"a@1"}));
  EXPECT_EQ(f.chLog[1], (std::vector<std::string>{"c@2"}));
  // A run that starts stopped (restore into a finished run) fires nothing.
  f.engine->run(-1, [] {}, stopFn);
  EXPECT_EQ(f.cpuLog.size(), 1u);
  EXPECT_EQ(f.chLog[0].size(), 1u);
  EXPECT_EQ(f.chLog[1].size(), 1u);
}

TEST(ShardWindow, CheckpointFiresOnceAtAQuiescentBoundary) {
  Fixture f;
  for (Tick t : {Tick{0}, Tick{12}, Tick{20}})
    f.cpu.scheduleAt(t, [&f, t] { f.cpuLog.push_back("cpu@" + std::to_string(t)); });
  f.channelEvent(0, 14, "a");
  f.channelEvent(0, 15, "b");
  f.channelEvent(0, 16, "c");
  // The window from 12 would end at 22; it is clamped to the checkpoint
  // tick 15, so everything before 15 has fired and nothing at or after it.
  int cuts = 0;
  std::vector<std::string> cpuAtCut;
  std::vector<std::string> chAtCut;
  f.engine->run(
      15,
      [&] {
        ++cuts;
        cpuAtCut = f.cpuLog;
        chAtCut = f.chLog[0];
      },
      [] { return false; });
  EXPECT_EQ(cuts, 1);
  EXPECT_EQ(cpuAtCut, (std::vector<std::string>{"cpu@0", "cpu@12"}));
  EXPECT_EQ(chAtCut, (std::vector<std::string>{"a@14"}));
  EXPECT_EQ(f.cpuLog, (std::vector<std::string>{"cpu@0", "cpu@12", "cpu@20"}));
  EXPECT_EQ(f.chLog[0], (std::vector<std::string>{"a@14", "b@15", "c@16"}));
}

TEST(ShardWindow, BufferedAdmissionsRoundTripThroughSaveAndLoad) {
  const auto script = [](Fixture& f) {
    f.cpuAdmits(0, 0, 30, 64);
    f.cpuAdmits(0, 1, 45, 128);
    f.cpuAdmits(2, 0, 45, 192);
  };
  Fixture ref;
  script(ref);
  ref.run();
  ASSERT_EQ(ref.chLog[0], (std::vector<std::string>{"enq64r@30", "enq192r@45"}));
  ASSERT_EQ(ref.chLog[1], (std::vector<std::string>{"enq128r@45"}));

  // Cut at 20: all three admissions are still in the mailbox, so the ENG
  // section is the only place they exist.
  Fixture a;
  script(a);
  std::string bytes;
  Tick capturedAt = -1;
  std::uint64_t cpuCounter = 0;
  std::size_t deliveredAtCut = 0;
  a.engine->run(
      20,
      [&] {
        ckpt::Writer w;
        a.engine->save(w);
        bytes = w.take();
        capturedAt = a.engine->maxNow();
        cpuCounter = a.cpu.nextCounter();
        deliveredAtCut = a.chLog[0].size() + a.chLog[1].size();
      },
      [] { return false; });
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(deliveredAtCut, 0u);
  // Saving does not disturb the run it was taken from.
  EXPECT_EQ(a.chLog[0], ref.chLog[0]);
  EXPECT_EQ(a.chLog[1], ref.chLog[1]);

  Fixture b;
  b.engine->restoreClocks(capturedAt);
  ckpt::Reader r(bytes);
  b.engine->load(r);
  ASSERT_TRUE(r.atEnd());
  EXPECT_EQ(b.cpu.nextCounter(), cpuCounter);
  b.run();
  EXPECT_EQ(b.chLog[0], ref.chLog[0]);
  EXPECT_EQ(b.chLog[1], ref.chLog[1]);
}

// Hostile snapshot: a buffered admission's core reaches the hierarchy on
// delivery, so load() range-checks it against the wired core count.
TEST(ShardWindow, LoadRejectsAnAdmissionCoreOutOfRange) {
  constexpr std::uint64_t kLine = 0x5A5A5A40;
  Fixture a;
  a.cpuAdmits(0, 1, 30, kLine);
  std::string bytes;
  a.engine->run(
      20,
      [&] {
        ckpt::Writer w;
        a.engine->save(w);
        bytes = w.take();
      },
      [] { return false; });
  auto loadWithCore = [&](std::int32_t core) {
    std::string forged = bytes;
    // Buffered admission: ..., u64 lineAddr, i32 core, b write.
    EXPECT_TRUE(forgeI32After(forged, kLine, 8, core));
    Fixture b;
    ckpt::Reader r(forged);
    b.engine->load(r);
    return r.ok();
  };
  EXPECT_TRUE(loadWithCore(kCores - 1));
  EXPECT_FALSE(loadWithCore(kCores));
  EXPECT_FALSE(loadWithCore(-1));
}

TEST(ShardWindow, LoadRejectsAChannelCountMismatch) {
  Fixture two;
  ckpt::Writer w;
  two.engine->save(w);
  EventQueue cpu;
  EventQueue ch;
  ShardEngineOptions opts;
  opts.lookahead = kLookahead;
  ShardedEngine one(cpu, std::vector<EventQueue*>{&ch}, opts);
  ckpt::Reader r(w.str());
  one.load(r);
  EXPECT_FALSE(r.ok());
}

/// Command sink that records each entry as "<kind>.ch<channel>@<at>".
struct RecordingSink final : mc::CommandLog {
  void onCommand(mc::DramCommand cmd, const core::DramAddress& da, Tick at, Tick,
                 Tick) override {
    log.push_back(std::string(mc::commandName(cmd)) + ".ch" +
                  std::to_string(da.channel) + "@" + std::to_string(at));
  }
  void onRefresh(int channel, int, int, Tick at) override {
    log.push_back("REF.ch" + std::to_string(channel) + "@" + std::to_string(at));
  }
  void onOraclePre(const core::DramAddress& da, Tick at) override {
    log.push_back("OPRE.ch" + std::to_string(da.channel) + "@" + std::to_string(at));
  }
  std::vector<std::string> log;
};

TEST(ShardWindow, CommandBuffersMergeByExecutingEventKey) {
  Fixture f;
  BufferedCommandLog buf0(*f.ch[0]);
  BufferedCommandLog buf1(*f.ch[1]);
  RecordingSink sink;
  f.engine->setCommandMerge({&buf0, &buf1}, &sink);
  const auto command = [](BufferedCommandLog& b, mc::DramCommand cmd, int c,
                          Tick at) {
    core::DramAddress da;
    da.channel = c;
    b.onCommand(cmd, da, at, -1, -1);
  };
  // Channel 0 runs its whole window before channel 1, so its buffer fills
  // first; the sink must still see the single-queue firing order.
  f.ch[0]->scheduleAt(1, [&] { command(buf0, mc::DramCommand::Act, 0, 1); });
  f.ch[1]->scheduleAt(3, [&] { command(buf1, mc::DramCommand::Act, 1, 3); });
  f.ch[0]->scheduleAt(5, [&] { command(buf0, mc::DramCommand::Read, 0, 5); });
  f.ch[1]->scheduleAt(6, [&] {
    // A retroactive oracle precharge sorts by the event that produced it
    // (tick 6), not by its own tick 2; entries of one execution keep their
    // order.
    core::DramAddress da;
    da.channel = 1;
    buf1.onOraclePre(da, 2);
    buf1.onRefresh(1, 0, -1, 6);
  });
  f.ch[0]->scheduleAt(12, [&] { command(buf0, mc::DramCommand::Pre, 0, 12); });
  f.run();
  EXPECT_EQ(sink.log, (std::vector<std::string>{"ACT.ch0@1", "ACT.ch1@3", "RD.ch0@5",
                                                "OPRE.ch1@2", "REF.ch1@6",
                                                "PRE.ch0@12"}));
}

TEST(ShardWindow, EventCapIsACheckFailure) {
  ScopedCheckTrap trap;
  try {
    Fixture f(/*maxEvents=*/5);
    // A CPU event that re-arms itself forever: a runaway configuration.
    struct Ticker {
      EventQueue& q;
      void arm() {
        q.scheduleAfter(1, [this] { arm(); });
      }
    } ticker{f.cpu};
    ticker.arm();
    f.run();
    FAIL() << "event cap not enforced";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("event cap"), std::string::npos) << e.message;
  }
}

TEST(ShardWindow, NonPositiveLookaheadIsRejected) {
  ScopedCheckTrap trap;
  EventQueue cpu;
  EventQueue ch;
  ShardEngineOptions opts;
  opts.lookahead = 0;
  try {
    ShardedEngine engine(cpu, std::vector<EventQueue*>{&ch}, opts);
    FAIL() << "zero lookahead accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(e.message.find("lookahead"), std::string::npos) << e.message;
  }
}

}  // namespace
}  // namespace mb::sim
