//===- EventWireTest.cpp - Daemon event wire contracts --------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON-lines wire form of daemon events (DESIGN.md, "Verification
/// daemon"): every event kind round-trips through toJsonLine/fromJsonLine,
/// and malformed lines are rejected rather than guessed at.
///
//===----------------------------------------------------------------------===//

#include "daemon/Event.h"

#include <gtest/gtest.h>

using namespace rcc;

namespace {

using daemon::Event;
using daemon::EventKind;

TEST(EventWire, RevisionRoundTrip) {
  Event E;
  E.Kind = EventKind::Revision;
  E.Rev = 4;
  E.File = "demo.c";
  Event R;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Revision));
  EXPECT_EQ(R.Rev, 4u);
  EXPECT_EQ(R.File, "demo.c");
}

TEST(EventWire, DiagnosticRoundTrip) {
  Event E;
  E.Kind = EventKind::Diagnostic;
  E.Rev = 2;
  E.File = "demo.c";
  E.Verified = false;
  E.Cached = true;
  E.Diag.Fn = "arena_alloc";
  E.Diag.Message = "side condition failed";
  E.Diag.Loc = {10, 3};
  E.WallMs = 1.25;
  Event R;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(), R));
  EXPECT_EQ(static_cast<int>(R.Kind),
            static_cast<int>(EventKind::Diagnostic));
  EXPECT_FALSE(R.Verified);
  EXPECT_TRUE(R.Cached);
  EXPECT_EQ(R.Diag.Fn, "arena_alloc");
  EXPECT_EQ(R.Diag.Message, "side condition failed");
  EXPECT_EQ(R.Diag.Loc.Line, 10u);
  EXPECT_EQ(R.Diag.Loc.Col, 3u);
  EXPECT_DOUBLE_EQ(R.WallMs, 1.25);
}

TEST(EventWire, RevisionDoneRoundTrip) {
  Event E;
  E.Kind = EventKind::RevisionDone;
  E.Rev = 9;
  E.File = "demo.c";
  E.Functions = 12;
  E.Reverified = 3;
  E.CachedFns = 9;
  E.L1Hits = 5;
  E.L2Hits = 4;
  E.Replayed = 4;
  E.Failed = 1;
  E.AllVerified = false;
  Event R;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(), R));
  EXPECT_EQ(R.Functions, 12u);
  EXPECT_EQ(R.Reverified, 3u);
  EXPECT_EQ(R.CachedFns, 9u);
  EXPECT_EQ(R.L1Hits, 5u);
  EXPECT_EQ(R.L2Hits, 4u);
  EXPECT_EQ(R.Replayed, 4u);
  EXPECT_EQ(R.Failed, 1u);
  EXPECT_FALSE(R.AllVerified);
}

TEST(EventWire, RemainingKindsRoundTrip) {
  Event E;
  E.Kind = EventKind::Unchanged;
  E.Rev = 1;
  E.File = "a.c";
  E.AllVerified = true;
  Event R;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Unchanged));
  EXPECT_TRUE(R.AllVerified);

  E = Event();
  E.Kind = EventKind::Status;
  E.Functions = 7;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Status));
  EXPECT_EQ(R.Functions, 7u);

  E = Event();
  E.Kind = EventKind::Error;
  E.Diag.Message = "parse error";
  E.Diag.Loc = {3, 1};
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Error));
  EXPECT_EQ(R.Diag.Message, "parse error");
  EXPECT_EQ(R.Diag.Loc.Line, 3u);

  E = Event();
  E.Kind = EventKind::Gc;
  E.BytesBefore = 1000;
  E.BytesAfter = 400;
  E.Evicted = 6;
  E.MaxBytes = 512;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Gc));
  EXPECT_EQ(R.BytesBefore, 1000u);
  EXPECT_EQ(R.BytesAfter, 400u);
  EXPECT_EQ(R.Evicted, 6u);
  EXPECT_EQ(R.MaxBytes, 512u);

  E = Event();
  E.Kind = EventKind::Shutdown;
  E.Rev = 3;
  ASSERT_TRUE(Event::fromJsonLine(E.toJsonLine(), R));
  EXPECT_EQ(static_cast<int>(R.Kind), static_cast<int>(EventKind::Shutdown));
  EXPECT_EQ(R.Rev, 3u);
}

TEST(EventWire, GarbageRejected) {
  Event R;
  EXPECT_FALSE(Event::fromJsonLine("", R));
  EXPECT_FALSE(Event::fromJsonLine("not json", R));
  EXPECT_FALSE(Event::fromJsonLine("{\"rev\": 1}", R)); // no event name
  EXPECT_FALSE(Event::fromJsonLine("{\"event\": \"warp\", \"rev\": 1}", R));
  EXPECT_FALSE(Event::fromJsonLine("{\"event\": \"error\"}", R)); // no message
}

} // namespace
