#include <gtest/gtest.h>

#include <vector>

#include "rt/context.hpp"
#include "rt/errors.hpp"
#include "rt/graph.hpp"

namespace ms::rt {
namespace {

sim::SimConfig cfg() { return sim::SimConfig::phi_31sp(); }

sim::KernelWork work(double elems = 1e6) {
  sim::KernelWork w;
  w.kind = sim::KernelKind::Streaming;
  w.elems = elems;
  return w;
}

TEST(Events, NullEventCountsAsDone) {
  Event e;
  EXPECT_FALSE(e.valid());
  EXPECT_TRUE(e.done());
  EXPECT_EQ(e.time(), sim::SimTime::zero());
}

TEST(Events, CrossStreamDependencyOrdersExecution) {
  Context ctx(cfg());
  ctx.setup(2);
  std::vector<int> order;
  const Event e0 =
      ctx.stream(0).enqueue_kernel({"producer", work(1e7), [&] { order.push_back(0); }});
  ctx.stream(1).enqueue_kernel({"consumer", work(1e3), [&] { order.push_back(1); }}, {e0});
  ctx.synchronize();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Events, DependentSpanStartsAfterDependencyEnds) {
  Context ctx(cfg());
  ctx.setup(2);
  const Event e0 = ctx.stream(0).enqueue_kernel({"producer", work(1e7), {}});
  ctx.stream(1).enqueue_kernel({"consumer", work(1e3), {}}, {e0});
  ctx.synchronize();
  const auto& spans = ctx.timeline().spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_GE(spans[1].start, spans[0].end);
}

TEST(Events, IndependentStreamsIgnoreEachOther) {
  Context ctx(cfg());
  ctx.setup(2);
  ctx.stream(0).enqueue_kernel({"a", work(1e8), {}});
  ctx.stream(1).enqueue_kernel({"b", work(1e3), {}});
  ctx.synchronize();
  const auto& spans = ctx.timeline().spans();
  ASSERT_EQ(spans.size(), 2u);
  // The small kernel must NOT wait for the big one.
  const auto& small = spans[0].label == "b" ? spans[0] : spans[1];
  const auto& big = spans[0].label == "b" ? spans[1] : spans[0];
  EXPECT_LT(small.end, big.end);
}

TEST(Events, MultipleDependenciesAllRespected) {
  Context ctx(cfg());
  ctx.setup(4);
  std::vector<int> order;
  std::vector<Event> deps;
  for (int i = 0; i < 3; ++i) {
    deps.push_back(ctx.stream(i).enqueue_kernel(
        {"p", work(1e6 * (i + 1)), [&order, i] { order.push_back(i); }}));
  }
  ctx.stream(3).enqueue_kernel({"join", work(1e3), [&] { order.push_back(99); }}, deps);
  ctx.synchronize();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.back(), 99);
}

TEST(Events, CompletedDependencyDoesNotBlock) {
  Context ctx(cfg());
  ctx.setup(2);
  const Event e0 = ctx.stream(0).enqueue_kernel({"p", work(), {}});
  ctx.synchronize();
  ASSERT_TRUE(e0.done());
  int ran = 0;
  ctx.stream(1).enqueue_kernel({"c", work(), [&] { ran = 1; }}, {e0});
  ctx.synchronize();
  EXPECT_EQ(ran, 1);
}

TEST(Events, DependencyOnTransferEvent) {
  Context ctx(cfg());
  ctx.setup(2);
  std::vector<float> data(1024, 3.0f);
  const auto buf = ctx.create_buffer(std::span<float>(data));
  const Event up = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  float seen = 0.0f;
  ctx.stream(1).enqueue_kernel({"probe", work(), [&] { seen = *ctx.device_ptr<float>(buf, 0); }},
                               {up});
  ctx.synchronize();
  EXPECT_FLOAT_EQ(seen, 3.0f);  // transfer definitely happened first
}

TEST(Events, DiamondDependencyGraph) {
  //      a
  //     / \
  //    b   c
  //     \ /
  //      d
  Context ctx(cfg());
  ctx.setup(4);
  std::vector<char> order;
  const Event a = ctx.stream(0).enqueue_kernel({"a", work(), [&] { order.push_back('a'); }});
  const Event b =
      ctx.stream(1).enqueue_kernel({"b", work(2e6), [&] { order.push_back('b'); }}, {a});
  const Event c =
      ctx.stream(2).enqueue_kernel({"c", work(3e6), [&] { order.push_back('c'); }}, {a});
  ctx.stream(3).enqueue_kernel({"d", work(), [&] { order.push_back('d'); }}, {b, c});
  ctx.synchronize();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 'a');
  EXPECT_EQ(order.back(), 'd');
}

TEST(Events, LongChainAcrossStreams) {
  Context ctx(cfg());
  ctx.setup(4);
  int counter = 0;
  Event prev;
  for (int i = 0; i < 32; ++i) {
    prev = ctx.stream(i % 4).enqueue_kernel(
        {"link", work(), [&counter, i] { EXPECT_EQ(counter, i); ++counter; }}, {prev});
  }
  ctx.synchronize();
  EXPECT_EQ(counter, 32);
}

TEST(Events, DuplicateDependenciesAreHarmless) {
  Context ctx(cfg());
  ctx.setup(2);
  const Event a = ctx.stream(0).enqueue_kernel({"a", work(), {}});
  int ran = 0;
  ctx.stream(1).enqueue_kernel({"b", work(), [&] { ran = 1; }}, {a, a, a});
  ctx.synchronize();
  EXPECT_EQ(ran, 1);
}

TEST(Events, EventTimeMatchesSpanEnd) {
  Context ctx(cfg());
  const Event e = ctx.stream(0).enqueue_kernel({"k", work(), {}});
  ctx.synchronize();
  ASSERT_EQ(ctx.timeline().size(), 1u);
  EXPECT_EQ(e.time(), ctx.timeline().spans()[0].end);
}

TEST(Events, WaitersOnOneEventArmInRegistrationOrder) {
  // Three uploads on three streams wait on one kernel and contend for the
  // same PCIe direction, so the link serves them in the order they arm. They
  // register as streams 3, 1, 2 — deliberately not stream order — and must
  // finish in exactly that order.
  Context ctx(cfg());
  ctx.setup(4);
  const auto buf = ctx.create_virtual_buffer(3 << 16);
  const Event gate = ctx.stream(0).enqueue_kernel({"gate", work(1e7), {}});
  const Event up3 = ctx.stream(3).enqueue_h2d(buf, 0, 1 << 16, {gate});
  const Event up1 = ctx.stream(1).enqueue_h2d(buf, 1 << 16, 1 << 16, {gate});
  const Event up2 = ctx.stream(2).enqueue_h2d(buf, 2 << 16, 1 << 16, {gate});
  ctx.synchronize();
  EXPECT_LT(gate.time(), up3.time());
  EXPECT_LT(up3.time(), up1.time());
  EXPECT_LT(up1.time(), up2.time());
}

TEST(Events, PendingDependentsMayOutliveTheirContext) {
  // A context dropped mid-flight leaves user-held events whose states still
  // list wait edges from its (now released) edge pool. The events must stay
  // readable and be destroyed cleanly; the sanitizer legs check the memory.
  Event head;
  Event tail;
  {
    Context ctx(cfg());
    ctx.setup(3);
    head = ctx.stream(0).enqueue_kernel({"head", work(1e7), {}});
    const Event mid = ctx.stream(1).enqueue_kernel({"mid", work(), {}}, {head});
    tail = ctx.stream(2).enqueue_kernel({"tail", work(), {}}, {head, mid});
  }
  EXPECT_TRUE(head.valid());
  EXPECT_FALSE(head.done());
  EXPECT_FALSE(tail.done());
  // Drop the last references: the states go back to their pool store, which
  // the events kept alive past the context.
  head = Event{};
  tail = Event{};
}

TEST(Events, CapturePhantomIsRejectedAsADirectDependency) {
  // An enqueue during a capture returns a phantom that names a graph node and
  // never completes. Handed to a direct enqueue after the capture it would
  // wedge the dependent stream for good, so every enqueue kind refuses it up
  // front: nothing is queued and the context still drains.
  Context ctx(cfg());
  ctx.setup(2);
  const auto buf = ctx.create_virtual_buffer(1 << 16);
  Graph g;
  ctx.begin_capture(g);
  const Event phantom = ctx.stream(0).enqueue_kernel({"captured", work(), {}});
  ctx.end_capture();
  ASSERT_EQ(g.size(), 1u);

  EXPECT_THROW((void)ctx.stream(1).enqueue_kernel({"k", work(), {}}, {phantom}), Error);
  EXPECT_THROW((void)ctx.stream(1).enqueue_barrier({Event{}, phantom}), Error);
  EXPECT_THROW((void)ctx.stream(1).enqueue_h2d(buf, 0, 1 << 16, {phantom}), Error);
  EXPECT_THROW((void)ctx.stream(0).enqueue_d2h(buf, 0, 1 << 16, {phantom}), Error);
  EXPECT_TRUE(ctx.stream(0).idle());
  EXPECT_TRUE(ctx.stream(1).idle());
  EXPECT_NO_THROW(ctx.synchronize());

  const Event after = ctx.stream(1).enqueue_kernel({"after", work(), {}});
  EXPECT_NO_THROW(ctx.synchronize());
  EXPECT_TRUE(after.done());
  EXPECT_EQ(ctx.timeline().size(), 1u);
}

}  // namespace
}  // namespace ms::rt
