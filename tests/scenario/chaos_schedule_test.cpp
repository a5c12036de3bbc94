// ChaosSchedule determinism, the chaos wire format, and scenario-spec
// serialization: the fault schedule must be a pure function of
// (seed, src, dst, seq, attempt), and every schedule must round-trip
// through its text form or fail loudly.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "scenario/chaos.hpp"
#include "scenario/spec.hpp"

namespace tulkun::scenario {
namespace {

ChaosProfile heavy_profile(std::uint64_t seed) {
  ChaosProfile p;
  p.seed = seed;
  p.loss = 0.3;
  p.dup = 0.2;
  p.reorder = 0.2;
  p.delay_min_s = 0.001;
  p.delay_max_s = 0.01;
  p.gray_rank = 2;
  p.gray_delay_s = 0.05;
  return p;
}

/// Walks a (src, dst, seq, attempt) grid and hands every draw to `fn`.
template <typename Fn>
void for_each_draw(const ChaosSchedule& sched, Fn fn) {
  for (net::PeerId src = 0; src < 4; ++src) {
    for (net::PeerId dst = 0; dst < 4; ++dst) {
      if (src == dst) continue;
      for (std::uint64_t seq = 1; seq <= 40; ++seq) {
        for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
          fn(src, dst, seq, attempt, sched.draw(src, dst, seq, attempt));
        }
      }
    }
  }
}

TEST(ChaosSchedule, DeterministicAcrossInstances) {
  const ChaosSchedule a(heavy_profile(17));
  const ChaosSchedule b(heavy_profile(17));
  std::size_t drops = 0;
  std::size_t dups = 0;
  std::size_t reorders = 0;
  for_each_draw(a, [&](net::PeerId src, net::PeerId dst, std::uint64_t seq,
                       std::uint32_t attempt, const FaultDraw& d) {
    const FaultDraw e = b.draw(src, dst, seq, attempt);
    EXPECT_EQ(d.drop, e.drop);
    EXPECT_EQ(d.dup, e.dup);
    EXPECT_EQ(d.reordered, e.reordered);
    EXPECT_EQ(d.delay_s, e.delay_s);
    EXPECT_EQ(d.dup_delay_s, e.dup_delay_s);
    drops += d.drop ? 1 : 0;
    dups += d.dup ? 1 : 0;
    reorders += d.reordered ? 1 : 0;
  });
  // The profile's fault rates actually fire over the grid.
  EXPECT_GT(drops, 0u);
  EXPECT_GT(dups, 0u);
  EXPECT_GT(reorders, 0u);
}

TEST(ChaosSchedule, SeedChangesTheSchedule) {
  const ChaosSchedule a(heavy_profile(1));
  const ChaosSchedule b(heavy_profile(2));
  std::size_t differing = 0;
  for_each_draw(a, [&](net::PeerId src, net::PeerId dst, std::uint64_t seq,
                       std::uint32_t attempt, const FaultDraw& d) {
    const FaultDraw e = b.draw(src, dst, seq, attempt);
    if (d.drop != e.drop || d.dup != e.dup || d.delay_s != e.delay_s) {
      ++differing;
    }
  });
  EXPECT_GT(differing, 0u);
}

TEST(ChaosSchedule, DelayBoundsAndGrayRank) {
  ChaosProfile p;
  p.seed = 5;
  p.delay_min_s = 0.002;
  p.delay_max_s = 0.008;
  p.gray_rank = 2;
  p.gray_delay_s = 0.05;
  const ChaosSchedule sched(p);
  for_each_draw(sched, [&](net::PeerId src, net::PeerId dst, std::uint64_t,
                           std::uint32_t, const FaultDraw& d) {
    const bool gray = src == p.gray_rank || dst == p.gray_rank;
    const double base = d.delay_s - (gray ? p.gray_delay_s : 0.0);
    EXPECT_GE(base, p.delay_min_s - 1e-12);
    EXPECT_LE(base, p.delay_max_s + 1e-12);
    if (gray) {
      EXPECT_GE(d.delay_s, p.gray_delay_s);
    }
  });
}

TEST(ChaosWire, DataRoundTrip) {
  const std::vector<std::uint8_t> payload{0xde, 0xad, 0xbe, 0xef, 0x00};
  const auto wire = encode_chaos_data(0x1122334455667788ull, 9, 4, payload);
  ChaosHeader h;
  ASSERT_TRUE(decode_chaos(wire, h));
  EXPECT_EQ(h.kind, ChaosKind::Data);
  EXPECT_EQ(h.session, 0x1122334455667788ull);
  EXPECT_EQ(h.seq, 9u);
  EXPECT_EQ(h.lowest, 4u);
  ASSERT_EQ(h.payload_offset, kChaosDataHeaderBytes);
  EXPECT_EQ(std::vector<std::uint8_t>(wire.begin() + h.payload_offset,
                                      wire.end()),
            payload);
}

TEST(ChaosWire, AckRoundTrip) {
  const auto wire = encode_chaos_ack(77, 12);
  ASSERT_EQ(wire.size(), kChaosAckHeaderBytes);
  ChaosHeader h;
  ASSERT_TRUE(decode_chaos(wire, h));
  EXPECT_EQ(h.kind, ChaosKind::Ack);
  EXPECT_EQ(h.session, 77u);
  EXPECT_EQ(h.cum, 12u);
}

TEST(ChaosWire, RejectsMalformedInput) {
  ChaosHeader h;
  EXPECT_FALSE(decode_chaos({}, h));
  EXPECT_FALSE(decode_chaos({0x7f, 0, 0}, h));  // unknown kind
  // Data with an invalid window: seq 0, or lowest above seq.
  EXPECT_FALSE(decode_chaos(encode_chaos_data(1, 0, 0, {}), h));
  EXPECT_FALSE(decode_chaos(encode_chaos_data(1, 3, 5, {}), h));
  // Ack frames are exact-size; anything else is malformed.
  auto ack = encode_chaos_ack(1, 1);
  ack.push_back(0);
  EXPECT_FALSE(decode_chaos(ack, h));
}

TEST(ChaosWire, TruncationPrefixesNeverCrash) {
  const auto data =
      encode_chaos_data(42, 7, 3, std::vector<std::uint8_t>(16, 0xab));
  for (std::size_t len = 0; len < data.size(); ++len) {
    const std::vector<std::uint8_t> prefix(data.begin(),
                                           data.begin() + len);
    ChaosHeader h;
    const bool ok = decode_chaos(prefix, h);
    if (len < kChaosDataHeaderBytes) {
      // Short of the header: always rejected.
      EXPECT_FALSE(ok) << "prefix length " << len;
    } else {
      // The data framing carries no payload length (the inner transport
      // preserves frame boundaries), so a truncated payload still decodes
      // — with an intact header.
      EXPECT_TRUE(ok) << "prefix length " << len;
      EXPECT_EQ(h.seq, 7u);
    }
  }
  const auto ack = encode_chaos_ack(42, 7);
  for (std::size_t len = 0; len < ack.size(); ++len) {
    ChaosHeader h;
    EXPECT_FALSE(decode_chaos(
        std::vector<std::uint8_t>(ack.begin(), ack.begin() + len), h));
  }
}

ScenarioSpec fancy_spec() {
  ScenarioSpec spec;
  spec.churn.seed = 1234;
  spec.churn.events = 500;
  spec.churn.rate_hz = 33.5;
  spec.churn.zipf_s = 1.7;
  spec.churn.flap_fraction = 0.25;
  spec.churn.withdraw_batch_max = 7;
  spec.churn.legacy = true;
  spec.chaos.seed = 99;
  spec.chaos.loss = 0.125;
  spec.chaos.dup = 0.0625;
  spec.chaos.reorder = 0.1;
  spec.chaos.delay_min_s = 0.001;
  spec.chaos.delay_max_s = 0.0123456789012345;
  spec.chaos.gray_rank = 3;
  spec.chaos.gray_delay_s = 0.05;
  spec.chaos.linkdowns.push_back(LinkWindow{1, 3, 0.25, 0.75});
  spec.chaos.linkdowns.push_back(LinkWindow{0, 2, 1.0, 1.0});
  spec.kills.push_back(KillSpec{1, 4});
  spec.kills.push_back(KillSpec{2, 9, 3});
  return spec;
}

TEST(ScenarioSpecFormat, MultiLineRoundTrip) {
  const auto spec = fancy_spec();
  const auto parsed = parse_scenario(format_scenario(spec));
  // Round-tripping again must be a fixed point: the %.17g floats carry
  // full precision.
  EXPECT_EQ(format_scenario(parsed), format_scenario(spec));
  ASSERT_EQ(parsed.kills.size(), 2u);
  EXPECT_EQ(parsed.kills[0].rank, 1u);
  EXPECT_EQ(parsed.kills[0].phase, 4u);
  EXPECT_EQ(parsed.kills[1].rank, 2u);
  EXPECT_EQ(parsed.kills[1].phase, 9u);
  EXPECT_EQ(parsed.kills[0].after_frames, 0u);
  EXPECT_EQ(parsed.kills[1].after_frames, 3u);
  EXPECT_EQ(parsed.churn.events, 500u);
  EXPECT_TRUE(parsed.churn.legacy);
  EXPECT_EQ(parsed.chaos.delay_max_s, spec.chaos.delay_max_s);
}

TEST(ScenarioSpecFormat, SingleLineArgsRoundTrip) {
  const auto spec = fancy_spec();
  const auto churn = parse_churn_arg(format_churn_arg(spec.churn));
  EXPECT_EQ(format_churn_arg(churn), format_churn_arg(spec.churn));
  const auto chaos = parse_chaos_arg(format_chaos_arg(spec.chaos));
  EXPECT_EQ(format_chaos_arg(chaos), format_chaos_arg(spec.chaos));
  // Empty input = defaults (what the launcher sends when a flag is unset).
  EXPECT_EQ(format_churn_arg(parse_churn_arg("")),
            format_churn_arg(ChurnProfile{}));
  EXPECT_FALSE(parse_chaos_arg("").enabled());
}

TEST(ScenarioSpecFormat, LinkdownWindowsRoundTrip) {
  const auto spec = fancy_spec();
  const auto chaos = parse_chaos_arg(format_chaos_arg(spec.chaos));
  ASSERT_EQ(chaos.linkdowns.size(), 2u);
  EXPECT_EQ(chaos.linkdowns[0].a, 1u);
  EXPECT_EQ(chaos.linkdowns[0].b, 3u);
  EXPECT_EQ(chaos.linkdowns[0].t0_s, 0.25);
  EXPECT_EQ(chaos.linkdowns[0].t1_s, 0.75);
  EXPECT_EQ(chaos.linkdowns[1].a, 0u);
  EXPECT_EQ(chaos.linkdowns[1].t1_s, 1.0);
  // A linkdown alone enables chaos (the wrapper must be installed).
  ChaosProfile only_flap;
  only_flap.linkdowns.push_back(LinkWindow{2, 4, 0.0, 0.5});
  EXPECT_TRUE(only_flap.enabled());
  EXPECT_TRUE(parse_chaos_arg(format_chaos_arg(only_flap)).enabled());
}

TEST(ScenarioSpecFormat, RejectsUnknownAndMalformed) {
  EXPECT_THROW((void)parse_scenario("bogus.key=1"), Error);
  EXPECT_THROW((void)parse_scenario("chaos.loss"), Error);  // no '='
  EXPECT_THROW((void)parse_scenario("chaos.loss=abc"), Error);
  EXPECT_THROW((void)parse_scenario("churn.events=12x"), Error);
  EXPECT_THROW((void)parse_scenario("kill.1=3+x"), Error);
  EXPECT_THROW((void)parse_churn_arg("chaos.loss=0.5;nope=1"), Error);
  // Malformed linkdown windows: missing separators, reversed interval.
  EXPECT_THROW((void)parse_chaos_arg("linkdown=1-2"), Error);
  EXPECT_THROW((void)parse_chaos_arg("linkdown=1@0..1"), Error);
  EXPECT_THROW((void)parse_chaos_arg("linkdown=1-2@0.5"), Error);
  EXPECT_THROW((void)parse_chaos_arg("linkdown=1-2@0.5..0.1"), Error);
  EXPECT_THROW((void)parse_chaos_arg("linkdown=a-b@0..1"), Error);
}

}  // namespace
}  // namespace tulkun::scenario
